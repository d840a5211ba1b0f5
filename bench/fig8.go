package main

import (
	"fmt"

	"repro/internal/measure"
)

// fig8 is the paper's Figure 8 table at measure.Default() scale: one
// client, one kernel, closed loop. cpu, vm, kern and core do the work,
// with rpc and xdr over simulated sockets for the last row; fleet,
// placement and real sockets are bypassed. The rows are timed one by
// one, so the difference between rows is the paper's own decomposition
// on the host clock.
var fig8 = workload{
	name: "fig8",
	why:  "the paper's Figure 8 table, one client and one kernel: cpu, vm, kern, core and simulated rpc, no fleet",
	run:  runFig8,
}

type fig8Row struct {
	label string // measure.Stats.Name
	span  string
	run   func(calls, trials int) (measure.Stats, error)
	calls func(measure.Scale) int
	// Per-layer metric names: host ns and allocations per simulated
	// call, and the simulated microseconds per call.
	hostNS, allocs, sim string
	// golden is the row's simulated µs/call at measure.Default() scale,
	// as cmd/smodbench prints it.
	golden string
}

var fig8Rows = []fig8Row{
	{"getpid()", "measure.RunGetpidNative", measure.RunGetpidNative,
		func(s measure.Scale) int { return s.GetpidCalls },
		"kern.getpid_host_ns", "kern.getpid_allocs", "kern.sim_getpid_us", "0.694542"},
	{"SMOD(SMOD-getpid)", "measure.RunSMODGetpid", measure.RunSMODGetpid,
		func(s measure.Scale) int { return s.SMODCalls },
		"core.smod_getpid_host_ns", "core.smod_getpid_allocs", "core.sim_smod_getpid_us", "7.988818"},
	{"SMOD(test-incr)", "measure.RunSMODIncr", measure.RunSMODIncr,
		func(s measure.Scale) int { return s.SMODCalls },
		"core.smod_incr_host_ns", "core.smod_incr_allocs", "sim_smod_us", "7.359391"},
	{"RPC(test-incr)", "measure.RunSimRPCIncr", measure.RunSimRPCIncr,
		func(s measure.Scale) int { return s.RPCCalls },
		"rpc.sim_incr_host_ns", "rpc.sim_incr_allocs", "sim_rpc_us", "59.798195"},
}

// fig8Setups is how many times a repetition times the rows' fixed cost.
const fig8Setups = 3

func runFig8(e *env) error {
	sc := measure.Default()
	if e.size == quick {
		sc = measure.Scale{GetpidCalls: 2000, SMODCalls: 200, RPCCalls: 50, Trials: 2}
	}
	// Set-up: each row at one call and one trial is the row's fixed
	// cost — a fresh kernel, the SecModule libc assembled, linked and
	// registered, the client spawned.
	var rowSetups []float64
	for i := 0; i < fig8Setups; i++ {
		err := e.setup(func() error {
			for _, row := range fig8Rows {
				d, err := e.call(row.span, func() error {
					_, err := row.run(1, 1)
					return err
				})
				if err != nil {
					return fmt.Errorf("%s set-up: %w", row.label, err)
				}
				rowSetups = append(rowSetups, millis(d))
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	e.rep.hostTime["core.row_setup_ms"] = summarize(rowSetups).Median

	for _, row := range fig8Rows {
		calls := row.calls(sc) * sc.Trials
		var st measure.Stats
		p, err := e.calls(func() error {
			_, err := e.call(row.span, func() error {
				var err error
				st, err = row.run(row.calls(sc), sc.Trials)
				return err
			})
			return err
		})
		// A row fails as a whole: the RPC row stops at the first reply
		// that is not arg+1, the SM32 rows at a client that does not
		// exit 0.
		e.rep.tally(calls, err == nil)
		if err != nil {
			e.rep.problem("%s: %v", row.label, err)
			continue
		}
		e.rep.hostTime[row.hostNS] = float64(p.wall) / float64(calls)
		e.rep.layer[row.allocs] = float64(p.mallocs) / float64(calls)
		e.rep.exact[row.sim] = st.MeanMicros
		if e.size == full {
			if got := fmt.Sprintf("%.6f", st.MeanMicros); got != row.golden {
				e.rep.problem("%s: %s µs/call, Figure 8 reproduction has %s", row.label, got, row.golden)
			}
		}
	}
	return nil
}
