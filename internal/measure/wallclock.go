package measure

// Wall-clock client driver: where every other workload in this package
// runs under simulated time (RunPlan/RunSchedule, bit-for-bit
// deterministic), this one drives a *served* fleet — smodfleetd's
// TCP sockets — with real concurrent clients and measures real
// elapsed time. The two clocks never mix: the server's simulated-time
// metrics (per-shard cycles, simulated p99) stay deterministic for a
// given call sequence, while the wall-clock numbers here describe the
// serving stack itself and are expected to vary run to run.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/rpc"
)

// WallClockStats is one wall-clock burst measurement.
type WallClockStats struct {
	// Clients and CallsPerClient describe the burst shape; TotalCalls
	// counts successful round trips and Errors failed ones.
	Clients        int
	CallsPerClient int
	TotalCalls     int
	Errors         int
	// Sheds counts calls the served fleet's QoS layer rejected with
	// rpc.ErrnoOverload (tenanted fleets past the shed knee). Sheds are
	// not errors: the transport round trip succeeded and the reply is a
	// deliberate admission decision.
	Sheds int
	// Elapsed is the real time from first dial to last reply.
	Elapsed time.Duration
	// CallsPerSec is TotalCalls over Elapsed, in wall-clock time.
	CallsPerSec float64
	// MeanMicros, P50Micros and P99Micros summarize per-call wall-clock
	// round-trip latency in microseconds.
	MeanMicros float64
	P50Micros  float64
	P99Micros  float64
}

func (w WallClockStats) String() string {
	s := fmt.Sprintf("%d clients x %d calls: %d ok, %d errors, %.0f calls/sec wall, p50 %.1f us, p99 %.1f us",
		w.Clients, w.CallsPerClient, w.TotalCalls, w.Errors,
		w.CallsPerSec, w.P50Micros, w.P99Micros)
	if w.Sheds > 0 {
		s += fmt.Sprintf(", %d shed", w.Sheds)
	}
	return s
}

// RunWallClockBurst drives `clients` concurrent closed-loop clients
// against a served fleet, each over its own transport connection from
// dial, issuing callsPerClient incr calls under its sticky key and
// checking every reply value. It returns aggregate wall-clock numbers;
// the first hard failure (dial, transport, or wrong value) aborts the
// burst and is returned after the remaining clients finish.
func RunWallClockBurst(dial func() (*rpc.Client, error), clients, callsPerClient int) (WallClockStats, error) {
	if clients < 1 || callsPerClient < 1 {
		return WallClockStats{}, fmt.Errorf("measure: burst needs clients and calls >= 1")
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     []float64
		firstErr error
		errs     int
		sheds    int
	)
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		errs++
		if firstErr == nil {
			firstErr = err
		}
	}
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := dial()
			if err != nil {
				fail(fmt.Errorf("measure: client %d dial: %w", c, err))
				return
			}
			defer cl.Close()
			fc := &rpc.FleetClient{C: cl}
			incr, err := fc.FuncID("incr")
			if err != nil {
				fail(fmt.Errorf("measure: client %d FuncID: %w", c, err))
				return
			}
			key := benchKey(c)
			local := make([]float64, 0, callsPerClient)
			for i := 0; i < callsPerClient; i++ {
				t0 := time.Now()
				val, errno, _, err := fc.Call(key, incr, uint32(i))
				rtt := time.Since(t0)
				if err != nil {
					fail(fmt.Errorf("measure: client %d call %d: %w", c, i, err))
					return
				}
				if errno == rpc.ErrnoOverload {
					// QoS shed: a deliberate admission refusal by the
					// fleet's tenant layer, not a failure.
					mu.Lock()
					sheds++
					mu.Unlock()
					continue
				}
				if errno != 0 || val != uint32(i)+1 {
					fail(fmt.Errorf("measure: client %d call %d: val %d want %d errno %d", c, i, val, i+1, errno))
					return
				}
				local = append(local, float64(rtt.Nanoseconds())/1e3)
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := WallClockStats{
		Clients:        clients,
		CallsPerClient: callsPerClient,
		TotalCalls:     len(lats),
		Errors:         errs,
		Sheds:          sheds,
		Elapsed:        elapsed,
	}
	if elapsed > 0 {
		st.CallsPerSec = float64(st.TotalCalls) / elapsed.Seconds()
	}
	if len(lats) > 0 {
		sort.Float64s(lats)
		var sum float64
		for _, l := range lats {
			sum += l
		}
		st.MeanMicros = sum / float64(len(lats))
		st.P50Micros = lats[len(lats)/2]
		st.P99Micros = lats[(len(lats)*99)/100]
	}
	return st, firstErr
}
