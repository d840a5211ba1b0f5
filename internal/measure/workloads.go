package measure

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/obj"
	"repro/internal/rpc"
	"repro/internal/xdr"
)

// The four Figure 8 workloads. The getpid and SMOD rows run as SM32
// programs so every measured call includes the real client-stub
// instructions, trap entry, and (for SMOD) the full client/handle
// round trip; the RPC row runs the simulated ONC RPC client/server
// pair over loopback datagram sockets.

// markKernel wires the SysMark syscall into k and returns the slice the
// timestamps accumulate into.
func markKernel(k *kern.Kernel) *[]uint64 {
	marks := &[]uint64{}
	k.RegisterSyscall(SysMark, "bench_mark", 0, func(k *kern.Kernel, p *kern.Proc, args []uint32) kern.Sysret {
		*marks = append(*marks, k.Clk.Cycles())
		return kern.Sysret{Val: 0}
	})
	return marks
}

// loopProgram generates the SM32 trial loop: T trials of (mark; N
// calls); a final mark; exit 0. callSite is the assembly of one
// measured call.
func loopProgram(calls, trials int, callSite string) string {
	return fmt.Sprintf(`
.text
.global main
main:
	ENTER 8
	PUSHI 0
	STOREFP -4
trial:
	LOADFP -4
	PUSHI %d
	GEU
	JNZ trials_done
	TRAP %d
	PUSHI 0
	STOREFP -8
inner:
	LOADFP -8
	PUSHI %d
	GEU
	JNZ inner_done
%s
	LOADFP -8
	PUSHI 1
	ADD
	STOREFP -8
	JMP inner
inner_done:
	LOADFP -4
	PUSHI 1
	ADD
	STOREFP -4
	JMP trial
trials_done:
	TRAP %d
	PUSHI 0
	SETRV
	LEAVE
	RET
`, trials, SysMark, calls, callSite, SysMark)
}

// benchCred is the client credential every benchmark client presents.
func benchCred() kern.Cred { return kern.Cred{UID: 1, Name: "bench"} }

// benchPolicy admits the bench client.
const benchPolicy = `authorizer: "POLICY"
licensees: "bench"
conditions: app_domain == "secmodule" -> "allow";
`

// setupLibc attaches SecModule to a fresh kernel and registers the
// SecModule libc under the bench policy, optionally mutated first.
func setupLibc(mutate func(*core.SMod, *core.ModuleSpec)) (*kern.Kernel, *core.SMod, *core.Module, error) {
	k := kern.New()
	sm := core.Attach(k)
	lib, err := core.LibCArchive()
	if err != nil {
		return nil, nil, nil, err
	}
	spec := &core.ModuleSpec{
		Name: "libc", Version: 1, Owner: "owner", Lib: lib,
		PolicySrc: []string{benchPolicy},
	}
	if mutate != nil {
		mutate(sm, spec)
	}
	m, err := sm.Register(spec)
	if err != nil {
		return nil, nil, nil, err
	}
	return k, sm, m, nil
}

// runSM32Loop builds a client around callSite, runs it to completion,
// and computes the row stats from the trial marks. withSession selects
// whether the client is linked as a SecModule client (crt0 + stubs).
func runSM32Loop(name string, calls, trials int, callSite string, withSession bool,
	mutate func(*core.SMod, *core.ModuleSpec)) (Stats, error) {
	k, _, _, err := setupLibc(mutate)
	if err != nil {
		return Stats{}, err
	}
	marks := markKernel(k)

	mainObj, err := asm.Assemble("bench_main.s", loopProgram(calls, trials, callSite))
	if err != nil {
		return Stats{}, err
	}
	var im *obj.Image
	if withSession {
		lib, err := core.LibCArchive()
		if err != nil {
			return Stats{}, err
		}
		im, err = core.LinkClient([]*obj.Object{mainObj},
			[]core.ClientModule{{Name: "libc", Version: 1}},
			[]*obj.Archive{lib})
		if err != nil {
			return Stats{}, err
		}
	} else {
		// Plain binary: wrap main in a minimal _start.
		start, err := asm.Assemble("start.s", `
.text
.global _start
_start:
	CALL main
	PUSHRV
	TRAP 1
`)
		if err != nil {
			return Stats{}, err
		}
		im, err = obj.Link(obj.LinkOptions{TextBase: kern.UserTextBase,
			DataBase: kern.UserDataBase, Entry: "_start"},
			[]*obj.Object{start, mainObj})
		if err != nil {
			return Stats{}, err
		}
	}
	p, err := k.Spawn("bench", benchCred(), im)
	if err != nil {
		return Stats{}, err
	}
	if err := k.Run(0); err != nil {
		return Stats{}, fmt.Errorf("measure: %s: %w", name, err)
	}
	if p.ExitStatus != 0 {
		return Stats{}, fmt.Errorf("measure: %s: client exited %d (killed by %d)",
			name, p.ExitStatus, p.KilledBy)
	}
	return Compute(name, calls, *marks)
}

// RunGetpidNative measures the native getpid() row: a bare TRAP 20 in a
// plain (non-SecModule) process.
func RunGetpidNative(calls, trials int) (Stats, error) {
	return runSM32Loop("getpid()", calls, trials, "\tTRAP 20\n", false, nil)
}

// RunSMODGetpid measures getpid() served through the SecModule libc:
// the client stub dispatches to the handle, whose getpid body performs
// the real trap (and reports the client's PID per section 4.3).
func RunSMODGetpid(calls, trials int) (Stats, error) {
	return runSM32Loop("SMOD(SMOD-getpid)", calls, trials, "\tCALL getpid\n", true, nil)
}

// RunSMODIncr measures the paper's test-incr through SecModule.
func RunSMODIncr(calls, trials int) (Stats, error) {
	return runSM32Loop("SMOD(test-incr)", calls, trials,
		"\tPUSHI 41\n\tCALL incr\n\tADDSP 4\n", true, nil)
}

// RunSMODIncrWithSpec is RunSMODIncr with a setup mutation (it may
// rewrite the spec and reach the kernel keystores), for the
// policy-complexity and encryption ablations.
func RunSMODIncrWithSpec(name string, calls, trials int, mutate func(*core.SMod, *core.ModuleSpec)) (Stats, error) {
	return runSM32Loop(name, calls, trials,
		"\tPUSHI 41\n\tCALL incr\n\tADDSP 4\n", true, mutate)
}

// RunSimRPCIncr measures the local ONC RPC baseline: the same test-incr
// function served by the simulated RPC server over loopback datagrams.
func RunSimRPCIncr(calls, trials int) (Stats, error) {
	k := kern.New()
	return runSimRPCIncr(k, markKernel(k), calls, trials)
}

// runSimRPCIncr runs the RPC row on k, whose SysMark handler appends
// the timestamps to marks.
func runSimRPCIncr(k *kern.Kernel, marks *[]uint64, calls, trials int) (Stats, error) {
	server := rpc.StartSimServer(k, rpc.SimServerPort)
	tr := &rpcTrials{calls: calls, trials: trials}
	client := k.SpawnStepper("rpc-bench", benchCred(), tr)
	err := k.RunUntil(func() bool {
		return client.State == kern.StateZombie || client.State == kern.StateDead
	}, 0)
	if err != nil {
		return Stats{}, err
	}
	if tr.err != nil {
		return Stats{}, tr.err
	}
	k.Kill(server, kern.SIGKILL)
	return Compute("RPC(test-incr)", calls, *marks)
}

// rpcTrials is the RPC row's client process, a kern.Stepper: it opens
// a SimClient, runs trials of (mark; calls incr calls), makes a final
// mark and exits. A failed or wrong call ends it with status 1 and the
// error in err.
type rpcTrials struct {
	calls, trials int
	c             *rpc.SimClient
	busy          bool // c has an open or a call in progress
	marks         int  // marks made
	i             int  // calls made in the current trial
	err           error
}

func (r *rpcTrials) Step(s *kern.Sys, val uint32, errno int) (kern.Syscall, bool, int) {
	switch {
	case r.c == nil:
		r.c = rpc.NewSimClient(s, 2222, rpc.SimServerPort)
		r.busy = true
		return r.c.Open(), false, 0
	case r.busy:
		sc, done, res, err := r.c.Result(val, errno)
		if !done {
			return sc, false, 0
		}
		r.busy = false
		if r.marks > 0 { // a call, not the open
			var v uint32
			if err == nil {
				v, err = xdr.NewDecoder(res).Uint32()
			}
			if err != nil || v != uint32(r.i)+1 {
				err = fmt.Errorf("rpc incr(%d) = %d, %v", r.i, v, err)
			}
			r.i++
		}
		if err != nil {
			r.err = err
			return kern.Syscall{}, true, 1
		}
	}
	if r.marks > 0 && r.marks <= r.trials && r.i < r.calls {
		r.busy = true
		return r.c.PrepareIncr(uint32(r.i)), false, 0
	}
	if r.marks > r.trials {
		return kern.Syscall{}, true, 0
	}
	r.marks++
	r.i = 0
	return kern.Syscall{No: SysMark}, false, 0
}

// DefaultScale is the default benchmark scale: the paper used 1,000,000
// calls/trial (100,000 for RPC) x 10 trials on real hardware; the
// simulator interprets every instruction, so the default is scaled down
// while remaining statistically stable. Paper-scale runs are a flag
// away (cmd/smodbench -calls 1000000 -rpccalls 100000).
type Scale struct {
	GetpidCalls, SMODCalls, RPCCalls, Trials int
}

// DefaultScale returns the default scale.
func Default() Scale {
	return Scale{GetpidCalls: 100_000, SMODCalls: 10_000, RPCCalls: 2_000, Trials: 10}
}

// PaperScale returns the exact Figure 8 trial sizes.
func PaperScale() Scale {
	return Scale{GetpidCalls: 1_000_000, SMODCalls: 1_000_000, RPCCalls: 100_000, Trials: 10}
}

// RunFigure8 runs all four rows at the given scale.
func RunFigure8(sc Scale) ([]Stats, error) {
	var rows []Stats
	for _, f := range []func() (Stats, error){
		func() (Stats, error) { return RunGetpidNative(sc.GetpidCalls, sc.Trials) },
		func() (Stats, error) { return RunSMODGetpid(sc.SMODCalls, sc.Trials) },
		func() (Stats, error) { return RunSMODIncr(sc.SMODCalls, sc.Trials) },
		func() (Stats, error) { return RunSimRPCIncr(sc.RPCCalls, sc.Trials) },
	} {
		s, err := f()
		if err != nil {
			return nil, err
		}
		rows = append(rows, s)
	}
	return rows, nil
}
