package fleet

import (
	"repro/internal/chaos"
	"repro/internal/placement"
	"repro/internal/trace"
)

// This file is the fleet half of the chaos engine (see internal/chaos):
// fault execution at rebalance barriers. Faults run in schedule order
// before the barrier's placement rebalance, so the rebalance — and all
// routing after it — already sees the post-fault fleet. Everything here
// is driven from the barrier path of a deterministic run, so a drill
// replays bit for bit: kills reclaim bindings in sorted key order,
// re-warms execute in that same order, and each shard's recovery work
// lands on its own simulated clock.

// applyChaos steps the fault schedule by one barrier and executes the
// due faults. No-op without WithChaos.
func (f *Fleet) applyChaos() error {
	if f.chaosEng == nil {
		return nil
	}
	for _, ft := range f.chaosEng.Step() {
		if f.tr != nil {
			f.tr.EmitControl(trace.Event{
				Kind: trace.KFault,
				Key:  ft.Key,
				Val:  int64(ft.Shard),
				Note: ft.String(),
			})
		}
		if f.met != nil {
			f.met.faults.Inc()
		}
		switch ft.Kind {
		case chaos.KillShard:
			if err := f.killShard(ft.Shard); err != nil {
				return err
			}
		case chaos.StallShard:
			f.stallShard(ft.Shard, ft.Cycles)
		case chaos.DropSession:
			f.dropSession(ft.Key)
		case chaos.CorruptWarm:
			f.mu.Lock()
			f.corrupt[ft.Key] = true
			f.mu.Unlock()
		}
	}
	return nil
}

// warmJob builds the jobWarm that re-attaches key's session, recorded
// as span. It consumes a pending CorruptWarm fault for key, which
// poisons the warm. Caller holds f.mu (write).
func (f *Fleet) warmJob(span trace.Kind, key string) *job {
	j := &job{kind: jobWarm, span: span, key: key, corrupt: f.corrupt[key]}
	delete(f.corrupt, key)
	return j
}

// killShard permanently removes shard sid: reclaim its bindings (the
// placement layer fails replicated keys over to surviving replicas and
// re-homes orphans), stop its goroutine, and re-warm every orphaned
// key's session on its failover shard. The last live shard is never
// killed — the fault is skipped, keeping a drilled fleet serving.
//
// Ordering matters: the shard is marked down first (new explicit sends
// fail fast), then the placement reclaim runs — from here on no route
// returns sid, while requests already enqueued still drain because the
// inbox closes only afterwards, under the write lock that excludes
// every in-flight route. Only then does the kill wait for the shard
// goroutine to wind down and re-warm the orphans.
func (f *Fleet) killShard(sid int) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrFleetClosed
	}
	if sid < 0 || sid >= len(f.shards) || f.down[sid] || f.liveShards() <= 1 {
		f.mu.Unlock()
		return nil // skipped: bad target, already dead, or last survivor
	}
	f.down[sid] = true
	f.mu.Unlock()

	rehomes := f.placement().OnShardDown(sid)

	f.mu.Lock()
	close(f.shards[sid].inbox)
	f.mu.Unlock()
	<-f.shards[sid].stopped
	return f.rewarm(rehomes)
}

// rewarm re-warms orphaned keys on their new homes, in reclaim order
// (sorted by key), and waits for every warm: a non-replicated key pays
// a bounded-cycle session re-attach on its failover shard; replicated
// keys never appear here — their surviving replicas are already warm.
// A home that is gone by now is skipped. Shard kills and drains both
// end with it.
func (f *Fleet) rewarm(rehomes []placement.Rehome) error {
	var jobs []*job
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrFleetClosed
	}
	for _, rh := range rehomes {
		if rh.To < 0 || rh.To >= len(f.shards) || f.down[rh.To] {
			continue
		}
		jobs = append(jobs, f.enqueue(rh.To, f.warmJob(trace.KRewarm, rh.Key)))
	}
	f.mu.Unlock()
	awaitAll(jobs)
	return nil
}

// liveShards counts shards not marked down. Caller holds f.mu.
func (f *Fleet) liveShards() int {
	n := 0
	for _, d := range f.down {
		if !d {
			n++
		}
	}
	return n
}

// stallShard advances shard sid's simulated clock by cycles — a
// straggler whose queued work finishes late. The stall is a control
// job, so it lands between kernel stretches like every other barrier
// action.
func (f *Fleet) stallShard(sid int, cycles uint64) {
	if sid < 0 || sid >= len(f.shards) {
		return
	}
	j := &job{kind: jobStall, cycles: cycles}
	if err := f.send(sid, j); err != nil {
		return // down or closed: a dead shard cannot stall
	}
	<-j.done
}

// dropSession tears down key's live session on its primary shard; the
// binding is reclaimed through the eviction hook and the key recovers
// by re-attaching (cold) on its next call.
func (f *Fleet) dropSession(key string) {
	sid, ok := f.placement().Lookup(key)
	if !ok {
		return
	}
	j := &job{kind: jobDrop, key: key}
	if err := f.send(sid, j); err != nil {
		return
	}
	<-j.done
}

// DownShards returns how many shards chaos faults have killed.
func (f *Fleet) DownShards() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.down) - f.liveShards()
}
