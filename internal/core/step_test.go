package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/kern"
)

// sessionScript is one client's session: attach to module, then call
// each (funcID, arg) in turn. Before call burnAt the client burns
// cycles up to the next clock tick, so the tick fires inside the
// client's own slice and the call's syscall is held at the preemption
// point.
type sessionScript struct {
	module string
	calls  [][2]uint32
	burnAt int
}

// sessionOutcome is what one client saw.
type sessionOutcome struct {
	AttachErr string
	Vals      []uint32
	Errnos    []int
	Status    int
}

// burnToTick charges the cycles left until the next timer interrupt.
func burnToTick(s *kern.Sys) {
	s.Burn(clock.CyclesPerTick - s.Kernel().Clk.Cycles()%clock.CyclesPerTick)
}

// goSession runs a script through the blocking AttachNative and Call.
func goSession(sc sessionScript, out *sessionOutcome) func(*kern.Sys) int {
	return func(s *kern.Sys) int {
		c, err := AttachNative(s, sc.module, 1, "")
		if err != nil {
			out.AttachErr = err.Error()
			return 1
		}
		for i, call := range sc.calls {
			if i == sc.burnAt {
				burnToTick(s)
			}
			v, errno := c.Call(call[0], call[1])
			out.Vals = append(out.Vals, v)
			out.Errnos = append(out.Errnos, errno)
		}
		return 0
	}
}

// stepSession runs the same script as a stepper, through Handshake and
// Prepare.
type stepSession struct {
	sc    sessionScript
	out   *sessionOutcome
	h     Handshake
	c     *NativeClient
	steps int
}

func (d *stepSession) Step(s *kern.Sys, val uint32, errno int) (kern.Syscall, bool, int) {
	d.steps++
	if d.c == nil {
		sc, done, status := d.h.Step(s, val, errno)
		if !done {
			return sc, false, 0
		}
		if d.h.Err != nil {
			d.out.AttachErr = d.h.Err.Error()
			return sc, true, status
		}
		d.c = d.h.Client
	} else {
		d.out.Vals = append(d.out.Vals, val)
		d.out.Errnos = append(d.out.Errnos, errno)
	}
	i := len(d.out.Vals)
	if i == len(d.sc.calls) {
		return kern.Syscall{}, true, 0
	}
	if i == d.sc.burnAt {
		burnToTick(s)
	}
	sc, err := d.c.Prepare(d.sc.calls[i][0], d.sc.calls[i][1])
	if err != nil {
		panic(err)
	}
	return sc, false, 0
}

// kernelCounts are the simulated totals both drivers must agree on.
type kernelCounts struct {
	Cycles, Ticks, Syscalls, Switches, Calls uint64
}

// runSessions runs every script as its own client process, all at
// once, on a fresh kernel. With steppers it also counts the slices
// that ended with a stepper's syscall held at a preemption point.
func runSessions(t *testing.T, scripts []sessionScript, steppers bool) ([]sessionOutcome, kernelCounts, int) {
	t.Helper()
	k, sm := newSMod(t)
	registerLibc(t, sm, nil)
	outs := make([]sessionOutcome, len(scripts))
	procs := make([]*kern.Proc, len(scripts))
	drivers := make([]*stepSession, len(scripts))
	for i, sc := range scripts {
		name := fmt.Sprintf("client-%d", i)
		if steppers {
			drivers[i] = &stepSession{sc: sc, out: &outs[i], h: Handshake{Module: sc.module, Version: 1}}
			procs[i] = k.SpawnStepper(name, clientCred(), drivers[i])
		} else {
			procs[i] = k.SpawnNative(name, clientCred(), goSession(sc, &outs[i]))
		}
	}
	held := 0
	lastSteps := make([]int, len(scripts))
	allDone := func() bool {
		done := true
		for i, p := range procs {
			if steppers {
				// A dispatch that stepped the process and left it
				// runnable ended at a preemption point with its next
				// syscall held (none of these clients yields).
				if drivers[i].steps != lastSteps[i] && p.State == kern.StateRunnable {
					held++
				}
				lastSteps[i] = drivers[i].steps
			}
			if p.State != kern.StateZombie && p.State != kern.StateDead {
				done = false
			}
		}
		return done
	}
	if err := k.RunUntil(allDone, 0); err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		outs[i].Status = p.ExitStatus
	}
	return outs, kernelCounts{
		Cycles:   k.Clk.Cycles(),
		Ticks:    k.Clk.Ticks(),
		Syscalls: k.SyscallCount,
		Switches: k.ContextSwitches,
		Calls:    sm.Calls,
	}, held
}

// TestStepperMatchesGoroutineDriver runs the same concurrent sessions
// through the blocking AttachNative/Call drivers and through steppers
// built on Handshake/Prepare: every simulated count and every value
// must be identical, including across clock ticks that hold a
// syscall at a preemption point.
func TestStepperMatchesGoroutineDriver(t *testing.T) {
	_, sm := newSMod(t)
	m := registerLibc(t, sm, nil)
	incr, ok := m.FuncID("incr")
	if !ok {
		t.Fatal("libc has no incr")
	}
	getpid, ok := m.FuncID("getpid")
	if !ok {
		t.Fatal("libc has no getpid")
	}
	many := func(n int, base uint32) [][2]uint32 {
		calls := make([][2]uint32, n)
		for i := range calls {
			calls[i] = [2]uint32{uint32(incr), base + uint32(i)}
		}
		return calls
	}
	bad := append(many(3, 100), [2]uint32{9999, 0}, [2]uint32{uint32(getpid), 0})
	scripts := []sessionScript{
		{module: "libc", calls: many(40, 0), burnAt: 3},
		{module: "nosuch", burnAt: -1},
		{module: "libc", calls: bad, burnAt: 4},
		{module: "libc", calls: many(25, 1000), burnAt: 20},
	}
	goOuts, goCounts, _ := runSessions(t, scripts, false)
	stOuts, stCounts, held := runSessions(t, scripts, true)
	if !reflect.DeepEqual(goOuts, stOuts) {
		t.Fatalf("outcomes differ:\ngoroutine %+v\nstepper   %+v", goOuts, stOuts)
	}
	if goCounts != stCounts {
		t.Fatalf("kernel counts differ:\ngoroutine %+v\nstepper   %+v", goCounts, stCounts)
	}
	// Pinned totals: a change to the native dispatch path that moves a
	// simulated cycle fails here, in both drivers at once.
	if want := (kernelCounts{Cycles: 18081234, Ticks: 3, Syscalls: 366, Switches: 151, Calls: 69}); goCounts != want {
		t.Fatalf("kernel counts %+v, want %+v", goCounts, want)
	}
	if held < 3 {
		t.Fatalf("%d syscalls held at preemption, want one per burn (3)", held)
	}
	if goCounts.Ticks < 3 {
		t.Fatalf("%d ticks, want at least 3", goCounts.Ticks)
	}
	if stOuts[1].AttachErr == "" || stOuts[1].Status != 1 {
		t.Fatalf("attach to an unknown module: %+v", stOuts[1])
	}
	for i, v := range stOuts[0].Vals {
		if v != uint32(i)+1 || stOuts[0].Errnos[i] != 0 {
			t.Fatalf("call %d = (%d, %d), want (%d, 0)", i, v, stOuts[0].Errnos[i], i+1)
		}
	}
	if stOuts[2].Errnos[3] == 0 {
		t.Fatalf("a bad funcID succeeded: %+v", stOuts[2])
	}
}
