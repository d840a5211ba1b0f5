package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/backend"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/kern"
	"repro/internal/loadmgr"
	"repro/internal/measure"
	"repro/internal/placement"
	"repro/internal/trace"
)

// fleetSkew serves a skewed open-loop schedule in simulated time on a
// replicating 2-shard fleet. Zipf(2.0) over 64 warm keys gives one key
// about 61% of arrivals, more than one shard serves, so replication
// engages; arguments drawn from 256 values make a 64-entry result cache
// hit about a quarter of the calls. Routing, dispatch, placement,
// loadmgr and the rebalance barriers do most of their work here.
var fleetSkew = workload{
	name: "fleet-skew",
	why:  "a Zipf-skewed open-loop schedule on a replicating, caching 2-shard fleet: routing, dispatch, placement, loadmgr, barriers",
	run:  runFleetSkew,
}

// sessionChurn gives every call a fresh key, so each pays for find, the
// policy check, the forced fork, the secret segment and, on the crypto
// shard, the module decrypt: core used for session setup and teardown
// instead of warm dispatch. A bare-kernel probe then attaches natively
// and counts the physical frames each finished session leaves behind.
var sessionChurn = workload{
	name: "session-churn",
	why:  "every call opens a fresh session on a fast+crypto fleet: find, policy, fork, decrypt and teardown instead of warm dispatch",
	run:  runSessionChurn,
}

const (
	skewShards    = 2
	skewKeys      = 64
	skewZipf      = 2.0
	skewArgs      = 256
	skewCache     = 64
	skewReplicas  = 2
	skewEpochSize = 5000
	// skewP99LimitUS is the simulated p99 limit sim_knee_cps is judged
	// by, and skewQuoteRate the offered rate sim_p50_us and sim_p99_us
	// are quoted at.
	skewP99LimitUS = 100
	skewQuoteRate  = 200_000
)

// skewRates is the offered-load grid in calls per simulated second: two
// points below the knee, two at and past it.
var skewRates = []float64{125_000, 200_000, 250_000, 275_000}

const (
	churnSessionCap = 16
	churnMix        = "fast=1,crypto=1"
	churnSetups     = 5
)

// benchPolicy admits the benchmark's client credential.
const benchPolicy = `authorizer: "POLICY"
licensees: "bench"
conditions: app_domain == "secmodule" -> "allow";
`

// provision registers the SecModule libc on one shard, encrypted on
// modcrypt shards, with incr declared idempotent so result caches and
// replicas may serve it.
func provision(k *kern.Kernel, sm *core.SMod, p backend.Profile) error {
	lib, err := core.LibCArchive()
	if err != nil {
		return err
	}
	lib, err = backend.ProvisionArchive(sm.ModKeys, lib, p, "bench-key", []byte("bench key"))
	if err != nil {
		return err
	}
	_, err = sm.Register(&core.ModuleSpec{
		Name: "libc", Version: 1, Owner: "owner", Lib: lib,
		PolicySrc:       []string{benchPolicy},
		IdempotentFuncs: []string{"incr"},
	})
	return err
}

// fleetOptions is every benchmark fleet's module and client, plus extra.
func fleetOptions(extra ...fleet.Option) []fleet.Option {
	return append([]fleet.Option{
		fleet.WithModule("libc", 1),
		fleet.WithClient(1, "bench"),
		fleet.WithProvision(provision),
	}, extra...)
}

// skewFleetOptions is the fleet fleet-skew and serve-tcp run on.
func skewFleetOptions(seed int64) []fleet.Option {
	return fleetOptions(
		fleet.WithShards(skewShards),
		fleet.WithResultCache(skewCache),
		fleet.WithPlacement(placement.NewReplicated(placement.ReplicatedConfig{
			Options:     loadmgr.Options{Migrate: true, Seed: seed},
			MaxReplicas: skewReplicas,
		})),
	)
}

func keyName(c int) string { return fmt.Sprintf("k%02d", c) }

// openFleet opens a fleet and resolves incr, timing fleet.Open.
func (e *env) openFleet(opts []fleet.Option) (*fleet.Fleet, uint32, time.Duration, error) {
	var f *fleet.Fleet
	d, err := e.call("fleet.Open", func() error {
		var err error
		f, err = fleet.Open(opts...)
		return err
	})
	if err != nil {
		return nil, 0, 0, err
	}
	incr, ok := f.FuncID("incr")
	if !ok {
		f.Close()
		return nil, 0, 0, fmt.Errorf("libc has no incr")
	}
	return f, incr, d, nil
}

// warm opens one session per key, so the measured phase holds only
// smod_call traffic.
func (e *env) warm(f *fleet.Fleet, incr uint32, keys int) error {
	plan := make([]fleet.Request, keys)
	for c := range plan {
		plan[c] = fleet.Request{Key: keyName(c), FuncID: incr, Args: []uint32{0}}
	}
	var resps []fleet.Response
	_, err := e.call("fleet.RunPlan", func() error {
		var err error
		resps, err = f.RunPlan(plan)
		return err
	})
	if err != nil {
		return fmt.Errorf("warm: %w", err)
	}
	for i, r := range resps {
		if r.Err != nil || r.Errno != 0 || r.Val != 1 {
			return fmt.Errorf("warm key %d: val %d errno %d: %v", i, r.Val, r.Errno, r.Err)
		}
	}
	return nil
}

// closeFleet shuts f down; shard errors surface only here.
func (e *env) closeFleet(f *fleet.Fleet) error {
	_, err := e.call("fleet.Close", f.Close)
	return err
}

func (e *env) stats(f *fleet.Fleet) fleet.Stats {
	var st fleet.Stats
	e.call("fleet.Stats", func() error { st = f.Stats(); return nil })
	return st
}

// reply checks one fleet response to incr(arg).
func (e *env) reply(r fleet.Response, arg uint32) {
	e.rep.tally(1, r.Err == nil && r.Errno == 0 && r.Val == arg+1)
}

// skewSchedule is one offered rate's arrivals: Poisson instants, keys
// by Zipf rank, arguments from a small set so the cache can hit.
func skewSchedule(seed int64, rate float64, n int, incr uint32) ([]fleet.TimedRequest, error) {
	at, err := measure.Arrivals(measure.Poisson, seed, rate, n)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	zipf := rand.NewZipf(rng, skewZipf, 1, skewKeys-1)
	out := make([]fleet.TimedRequest, n)
	for i := range out {
		out[i] = fleet.TimedRequest{At: at[i], Req: fleet.Request{
			Key:    keyName(int(zipf.Uint64())),
			FuncID: incr,
			Args:   []uint32{uint32(rng.Intn(skewArgs))},
		}}
	}
	return out, nil
}

func runFleetSkew(e *env) error {
	perRate := 40_000
	if e.size == quick {
		perRate = 2 * skewEpochSize
	}
	var rec *trace.Recorder
	if e.tr != nil {
		rec = trace.New(trace.Config{})
	}
	var (
		tally                    fleetTally
		opens, rebalances        []float64
		schedWall                time.Duration
		knee, quoteP50, quoteP99 float64
	)
	for _, rate := range skewRates {
		opts := skewFleetOptions(e.seed)
		if rec != nil {
			opts = append(opts, fleet.WithTrace(rec))
		}
		var (
			f    *fleet.Fleet
			incr uint32
		)
		err := e.setup(func() error {
			var d time.Duration
			var err error
			if f, incr, d, err = e.openFleet(opts); err != nil {
				return err
			}
			opens = append(opens, millis(d))
			return e.warm(f, incr, skewKeys)
		})
		if err != nil {
			if f != nil {
				f.Close()
			}
			return err
		}
		treqs, err := skewSchedule(e.seed, rate, perRate, incr)
		if err != nil {
			f.Close()
			return err
		}
		before := e.stats(f)
		var lat measure.LatencyRecorder
		_, err = e.calls(func() error {
			for start := 0; start < len(treqs); start += skewEpochSize {
				chunk := append([]fleet.TimedRequest(nil), treqs[start:min(start+skewEpochSize, len(treqs))]...)
				base := chunk[0].At
				for i := range chunk {
					chunk[i].At -= base
				}
				var resps []fleet.Response
				d, err := e.call("fleet.RunSchedule", func() error {
					var err error
					resps, err = f.RunSchedule(chunk)
					return err
				})
				if err != nil {
					return err
				}
				schedWall += d
				for i, r := range resps {
					e.reply(r, chunk[i].Req.Args[0])
					lat.Record(r.LatencyCycles)
				}
			}
			return nil
		})
		if err != nil {
			f.Close()
			return err
		}
		// One more barrier over the last epoch's heat, timed on its own:
		// RunSchedule's own barrier cannot be timed apart from its calls.
		d, err := e.call("fleet.Rebalance", func() error { _, err := f.Rebalance(); return err })
		if err != nil {
			f.Close()
			return err
		}
		rebalances = append(rebalances, micros(d))
		after := e.stats(f)
		if err := e.closeFleet(f); err != nil {
			return err
		}
		tally.add(after.Delta(before))

		p99 := lat.QuantileMicros(0.99)
		if p99 <= skewP99LimitUS {
			knee = rate
		}
		if rate == skewQuoteRate {
			quoteP50, quoteP99 = lat.QuantileMicros(0.50), p99
		}
	}
	tally.report(e.rep.exact)
	e.rep.exact["sim_p50_us"] = quoteP50
	e.rep.exact["sim_p99_us"] = quoteP99
	e.rep.exact["sim_knee_cps"] = knee
	if tally.replicasAdded == 0 {
		e.rep.problem("fleet-skew: replication never engaged")
	}
	if tally.cacheHits == 0 {
		e.rep.problem("fleet-skew: the result cache never hit")
	}
	e.rep.hostTime["fleet.open_host_ms"] = summarize(opens).Median
	e.rep.hostTime["fleet.rebalance_host_us"] = summarize(rebalances).Median
	e.rep.hostTime["fleet.schedule_host_ns_per_call"] = float64(schedWall) / float64(tally.calls)
	if rec != nil && e.traceOut != "" {
		return writeRecorder(rec, siblingPath(e.traceOut, "fleet"))
	}
	return nil
}

func runSessionChurn(e *env) error {
	sessions, probes := 80_000, 2_000
	if e.size == quick {
		sessions, probes = 2_000, 100
	}
	mix, err := backend.DefaultCatalog().ParseMix(churnMix)
	if err != nil {
		return err
	}
	var (
		f     *fleet.Fleet
		incr  uint32
		opens []float64
		probe *churnProbe
	)
	// A set-up here takes under a millisecond, so one per repetition
	// would leave setup_s a median of a handful of noisy samples: set up
	// churnSetups times and keep the last.
	for i := 0; i < churnSetups; i++ {
		if f != nil {
			if err := f.Close(); err != nil {
				return err
			}
		}
		err = e.setup(func() error {
			var d time.Duration
			var err error
			f, incr, d, err = e.openFleet(fleetOptions(
				fleet.WithBackends(mix),
				fleet.WithSessionCap(churnSessionCap),
			))
			if err != nil {
				return err
			}
			opens = append(opens, millis(d))
			probe, err = newChurnProbe()
			return err
		})
		if err != nil {
			if f != nil {
				f.Close()
			}
			return err
		}
	}
	rng := rand.New(rand.NewSource(e.seed))
	plan := make([]fleet.Request, sessions)
	for i := range plan {
		plan[i] = fleet.Request{Key: fmt.Sprintf("s%06d", i), FuncID: incr, Args: []uint32{rng.Uint32() >> 1}}
	}
	// Waves of shards x cap fresh keys: a batch never evicts sessions
	// busy in it, so each wave's sessions are idle, and reclaimable, by
	// the next.
	wave := len(mix) * churnSessionCap
	before := e.stats(f)
	var planWall time.Duration
	_, err = e.calls(func() error {
		for start := 0; start < len(plan); start += wave {
			chunk := plan[start:min(start+wave, len(plan))]
			var resps []fleet.Response
			d, err := e.call("fleet.RunPlan", func() error {
				var err error
				resps, err = f.RunPlan(chunk)
				return err
			})
			if err != nil {
				return err
			}
			planWall += d
			for i, r := range resps {
				e.reply(r, chunk[i].Args[0])
			}
		}
		return nil
	})
	if err != nil {
		f.Close()
		return err
	}
	after := e.stats(f)
	if err := e.closeFleet(f); err != nil {
		return err
	}
	d := after.Delta(before)
	var tally fleetTally
	tally.add(d)
	tally.report(e.rep.exact)
	if d.SessionsOpened != uint64(sessions) {
		e.rep.problem("session-churn: %d sessions opened for %d fresh keys", d.SessionsOpened, sessions)
	}
	var checks uint64
	for _, ps := range d.PerShard {
		name := "core.sim_session_us"
		if ps.Profile == "crypto" {
			name = "modcrypt.sim_session_us"
		}
		e.rep.exact[name] = clock.Micros(ps.Cycles) / float64(ps.SessionsOpened)
		checks += ps.PolicyChecks
	}
	e.rep.exact["policy.checks_per_session"] = ratio(checks, d.SessionsOpened)
	e.rep.exact["fleet.evictions_per_session"] = ratio(d.Evictions, d.SessionsOpened)
	e.rep.hostTime["fleet.open_host_ms"] = summarize(opens).Median
	e.rep.hostTime["fleet.plan_host_us_per_call"] = micros(planWall) / float64(sessions)

	args := make([]uint32, probes)
	for i := range args {
		args[i] = rng.Uint32() >> 1
	}
	_, err = e.calls(func() error { return probe.run(e, args) })
	return err
}

// churnProbe attaches natively to a bare kernel, one process and one
// session at a time, and counts the physical frames still in use after
// each session's process has exited.
type churnProbe struct {
	k    *kern.Kernel
	incr uint32
}

func newChurnProbe() (*churnProbe, error) {
	k := kern.New()
	sm := core.Attach(k)
	if err := provision(k, sm, backend.Default()); err != nil {
		return nil, err
	}
	id, ok := sm.Module(sm.Find("libc", 1)).FuncID("incr")
	if !ok {
		return nil, fmt.Errorf("libc has no incr")
	}
	return &churnProbe{k: k, incr: uint32(id)}, nil
}

func (p *churnProbe) run(e *env, args []uint32) error {
	frames0 := p.k.Phys.InUse()
	attach := make([]float64, 0, len(args))
	for _, arg := range args {
		var (
			val     uint32
			errno   int
			callErr error
		)
		run := e.tr.begin("kern.RunUntil", e.span)
		client := p.k.SpawnNative("churn", kern.Cred{UID: 1, Name: "bench"}, func(s *kern.Sys) int {
			t0 := time.Now()
			c, err := core.AttachNative(s, "libc", 1, "")
			t1 := time.Now()
			e.tr.add("core.AttachNative", run, 0, t0, t1, 0)
			attach = append(attach, micros(t1.Sub(t0)))
			if err != nil {
				callErr = err
				return 1
			}
			val, errno = c.Call(p.incr, arg)
			return 0
		})
		err := p.k.RunUntil(func() bool {
			return client.State == kern.StateZombie || client.State == kern.StateDead
		}, 0)
		e.tr.end(run)
		if err != nil {
			return err
		}
		if callErr != nil {
			return callErr
		}
		e.rep.tally(1, errno == 0 && val == arg+1)
	}
	e.rep.exact["vm.frames_per_session"] = float64(p.k.Phys.InUse()-frames0) / float64(len(args))
	e.rep.hostTime["core.attach_host_us"] = summarize(attach).Median
	return nil
}

// fleetTally sums the simulated counters of measured phases.
type fleetTally struct {
	calls, makespan, busy, span uint64
	cacheHits, cacheMisses      uint64
	replicasAdded, migrations   uint64
	ctxSwitches, syscalls       uint64
	shardCalls                  []uint64
}

func (t *fleetTally) add(d fleet.Stats) {
	t.calls += d.TotalCalls
	t.makespan += d.MakespanCycles
	t.cacheHits += d.CacheHits
	t.cacheMisses += d.CacheMisses
	t.replicasAdded += d.ReplicasAdded
	t.migrations += d.Migrations
	for i, ps := range d.PerShard {
		if i >= len(t.shardCalls) {
			t.shardCalls = append(t.shardCalls, 0)
		}
		t.shardCalls[i] += ps.Calls
		t.busy += ps.Cycles - min(ps.IdleCycles, ps.Cycles)
		t.span += d.MakespanCycles
		t.ctxSwitches += ps.ContextSwitches
		t.syscalls += ps.Syscalls
	}
}

// report writes the simulated per-layer values into m. Calls served
// from the result cache count as calls.
func (t *fleetTally) report(m map[string]float64) {
	served := t.calls + t.cacheHits
	var most uint64
	for _, c := range t.shardCalls {
		most = max(most, c)
	}
	m["sim_calls_per_s"] = clock.PerSec(int(served), t.makespan)
	m["fleet.shard_busy_frac"] = ratio(t.busy, t.span)
	m["fleet.shard_call_imbalance"] = ratio(most*uint64(len(t.shardCalls)), t.calls)
	m["loadmgr.cache_hit_ratio"] = ratio(t.cacheHits, t.cacheHits+t.cacheMisses)
	m["placement.replicas_added"] = float64(t.replicasAdded)
	m["placement.migrations"] = float64(t.migrations)
	m["kern.ctx_switches_per_call"] = ratio(t.ctxSwitches, served)
	m["kern.syscalls_per_call"] = ratio(t.syscalls, served)
}

// ratio is a/b, or 0 when b is 0: a layer the workload bypasses.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeRecorder exports the fleet's own flight-recorder events, in
// simulated time, as a Chrome trace.
func writeRecorder(rec *trace.Recorder, path string) error {
	return writeFile(path, func(w io.Writer) error { return trace.WriteChromeTrace(w, rec.Snapshot()) })
}
