// Package repro's root benchmarks regenerate the paper's Figure 8, one
// testing.B benchmark per row, plus the extension ablations DESIGN.md
// calls out (policy complexity per section 5, encryption at rest per
// section 4.1). All reported "us/call(sim)" metrics are simulated
// microseconds from the cycle clock; host ns/op measures simulator
// speed, not the paper's quantity.
//
// Run: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/measure"
	"repro/internal/modcrypt"
	"repro/internal/rpc"
)

// benchRow runs a measure workload sized to b.N calls in one trial and
// reports simulated us/call, and host allocs per call.
func benchRow(b *testing.B, run func(calls, trials int) (measure.Stats, error)) {
	b.Helper()
	b.ReportAllocs()
	calls := b.N
	if calls < 1 {
		calls = 1
	}
	b.ResetTimer()
	s, err := run(calls, 1)
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(s.MeanMicros, "us/call(sim)")
}

// BenchmarkFig8GetpidNative is Figure 8 row 1: the native getpid()
// kernel call in a plain process.
func BenchmarkFig8GetpidNative(b *testing.B) {
	benchRow(b, measure.RunGetpidNative)
}

// BenchmarkFig8SMODGetpid is Figure 8 row 2: getpid() served through
// the SecModule libc.
func BenchmarkFig8SMODGetpid(b *testing.B) {
	benchRow(b, measure.RunSMODGetpid)
}

// BenchmarkFig8SMODTestIncr is Figure 8 row 3: the test-incr function
// through SecModule.
func BenchmarkFig8SMODTestIncr(b *testing.B) {
	benchRow(b, measure.RunSMODIncr)
}

// BenchmarkFig8RPCTestIncr is Figure 8 row 4: the same test-incr served
// by the simulated local ONC RPC pair.
func BenchmarkFig8RPCTestIncr(b *testing.B) {
	benchRow(b, measure.RunSimRPCIncr)
}

// BenchmarkPolicyComplexity is the section 5 prediction: "If we need to
// evaluate more complex policy statements, we can expect a
// corresponding slowdown in proportion to the complexity of the
// required access control check." Per-call policy checks with a growing
// number of condition clauses.
func BenchmarkPolicyComplexity(b *testing.B) {
	for _, conds := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("conds=%d", conds), func(b *testing.B) {
			benchRow(b, func(calls, trials int) (measure.Stats, error) {
				return measure.RunSMODIncrWithSpec("smod-policy", calls, trials,
					func(sm *core.SMod, spec *core.ModuleSpec) {
						spec.CheckPerCall = true
						spec.PolicySrc = []string{policyWithConds(conds)}
					})
			})
		})
	}
}

// policyWithConds builds a policy whose matching clause is the last of
// n, so every call evaluates all n conditions.
func policyWithConds(n int) string {
	src := "authorizer: \"POLICY\"\nlicensees: \"bench\"\nconditions:"
	for i := 0; i < n-1; i++ {
		src += fmt.Sprintf(" module == \"nomatch%d\" -> \"allow\";", i)
	}
	src += " app_domain == \"secmodule\" -> \"allow\";\n"
	return src
}

// BenchmarkEncryptedDispatch is the section 4.1 ablation: per-call cost
// with an AES-encrypted module is identical to plaintext (decryption
// happens once per session, not per call).
func BenchmarkEncryptedDispatch(b *testing.B) {
	benchRow(b, func(calls, trials int) (measure.Stats, error) {
		return measure.RunSMODIncrWithSpec("smod-encrypted", calls, trials,
			func(sm *core.SMod, spec *core.ModuleSpec) {
				enc, err := modcrypt.EncryptArchive(sm.ModKeys, spec.Lib, "bench-key", []byte("bench key"))
				if err != nil {
					b.Fatal(err)
				}
				spec.Lib = enc
			})
	})
}

// BenchmarkSessionStart measures smod_start_session end to end
// (credential check, forcible fork, secret segment, module map), for
// plaintext vs encrypted modules — the registration-time ablation.
func BenchmarkSessionStart(b *testing.B) {
	for _, encrypted := range []bool{false, true} {
		name := "plaintext"
		if encrypted {
			name = "encrypted"
		}
		b.Run(name, func(b *testing.B) {
			k := kern.New()
			sm := core.Attach(k)
			lib, err := core.LibCArchive()
			if err != nil {
				b.Fatal(err)
			}
			if encrypted {
				lib, err = modcrypt.EncryptArchive(sm.ModKeys, lib, "bench-key", []byte("bench key"))
				if err != nil {
					b.Fatal(err)
				}
			}
			m, err := sm.Register(&core.ModuleSpec{
				Name: "libc", Version: 1, Owner: "owner", Lib: lib,
				PolicySrc: []string{`authorizer: "POLICY"
licensees: "bench"
conditions: app_domain == "secmodule" -> "allow";
`},
			})
			if err != nil {
				b.Fatal(err)
			}
			// A session lives for the client's lifetime, so each
			// iteration is one fresh client process attaching once; the
			// metric brackets AttachNative (find + start_session +
			// handle_info including the handle's force-share).
			var total uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var attachErr error
				driver := k.SpawnNative("driver", kern.Cred{UID: 1, Name: "bench"}, func(s *kern.Sys) int {
					before := k.Clk.Cycles()
					_, attachErr = core.AttachNative(s, "libc", 1, "")
					total += k.Clk.Cycles() - before
					return 0
				})
				if err := k.RunUntil(func() bool {
					return driver.State == kern.StateZombie || driver.State == kern.StateDead
				}, 0); err != nil {
					b.Fatal(err)
				}
				if attachErr != nil {
					b.Fatal(attachErr)
				}
			}
			b.StopTimer()
			b.ReportMetric(clock.Micros(total)/float64(b.N), "us/session(sim)")
			_ = m
		})
	}
}

// BenchmarkSimRPCHostSpeed measures how fast the simulator executes the
// RPC workload in host time (throughput of the reproduction itself).
func BenchmarkSimRPCHostSpeed(b *testing.B) {
	k := kern.New()
	server := rpc.StartSimServer(k, rpc.SimServerPort)
	ic := &incrCalls{n: b.N}
	client := k.SpawnStepper("client", kern.Cred{}, ic)
	b.ResetTimer()
	if err := k.RunUntil(func() bool {
		return client.State == kern.StateZombie || client.State == kern.StateDead
	}, 0); err != nil {
		b.Fatal(err)
	}
	if ic.calls != b.N {
		b.Fatalf("calls = %d, want %d", ic.calls, b.N)
	}
	k.Kill(server, kern.SIGKILL)
}

// incrCalls is a client process, a kern.Stepper: it opens an
// rpc.SimClient and makes n test-incr calls, counting the calls that
// succeed, and exits with status 1 at the first that fails.
type incrCalls struct {
	n, calls int
	c        *rpc.SimClient
	opened   bool
}

func (ic *incrCalls) Step(s *kern.Sys, val uint32, errno int) (kern.Syscall, bool, int) {
	if ic.c == nil {
		ic.c = rpc.NewSimClient(s, 2222, rpc.SimServerPort)
		return ic.c.Open(), false, 0
	}
	sc, done, _, err := ic.c.Result(val, errno)
	switch {
	case !done:
		return sc, false, 0
	case err != nil:
		return kern.Syscall{}, true, 1
	case ic.opened:
		ic.calls++
	}
	ic.opened = true
	if ic.calls == ic.n {
		return kern.Syscall{}, true, 0
	}
	return ic.c.PrepareIncr(uint32(ic.calls)), false, 0
}
