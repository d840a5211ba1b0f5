package kern

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// stepFunc adapts a function to the Stepper interface.
type stepFunc func(s *Sys, val uint32, errno int) (Syscall, bool, int)

func (f stepFunc) Step(s *Sys, val uint32, errno int) (Syscall, bool, int) { return f(s, val, errno) }

// testBlockNo is a test-only syscall that blocks on a wait queue until
// the release function registerBlock returns is called.
const testBlockNo = 397

func registerBlock(k *Kernel) (release func()) {
	open := false
	var q WaitQ
	k.RegisterSyscall(testBlockNo, "test_block", 0, func(*Kernel, *Proc, []uint32) Sysret {
		if !open {
			return Sysret{BlockOn: &q}
		}
		return Sysret{}
	})
	return func() {
		open = true
		k.Wakeup(&q)
	}
}

func TestStepperRunsAndExits(t *testing.T) {
	k := New()
	var got []uint32
	var errnos []int
	steps := 0
	p := k.SpawnStepper("stepper", Cred{UID: 3}, stepFunc(func(s *Sys, val uint32, errno int) (Syscall, bool, int) {
		steps++
		switch steps {
		case 1:
			if val != 0 || errno != 0 {
				t.Errorf("first step got (%d, %d), want a zero result", val, errno)
			}
			return Syscall{No: SYSgetpid}, false, 0
		case 2:
			got = append(got, val)
			msg := []byte("stepper hello\n")
			return Syscall{No: SYSwrite, Args: [6]uint32{1, s.StageBytes(msg), uint32(len(msg))}}, false, 0
		case 3:
			got = append(got, val)
			return Syscall{No: 9999}, false, 0
		default:
			errnos = append(errnos, errno)
			return Syscall{}, true, 7
		}
	}))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.State != StateDead || p.ExitStatus != 7 {
		t.Fatalf("state %v status %d, want dead with status 7", p.State, p.ExitStatus)
	}
	if len(got) != 2 || got[0] != uint32(p.PID) || got[1] != uint32(len("stepper hello\n")) {
		t.Fatalf("results %v, want [pid %d, 14]", got, p.PID)
	}
	if len(errnos) != 1 || errnos[0] != ENOSYS {
		t.Fatalf("unknown syscall errnos %v, want [ENOSYS]", errnos)
	}
	if !strings.Contains(string(k.Console), "stepper hello") {
		t.Fatalf("console %q", k.Console)
	}
	if k.SyscallCount != 3 {
		t.Fatalf("syscalls = %d, want 3", k.SyscallCount)
	}
}

// A stepper that exits through the exit syscall reports its status the
// same way as one that returns exit from Step.
func TestStepperExitSyscall(t *testing.T) {
	k := New()
	steps := 0
	p := k.SpawnStepper("stepper", Cred{}, stepFunc(func(*Sys, uint32, int) (Syscall, bool, int) {
		steps++
		return Syscall{No: SYSexit, Args: [6]uint32{5}}, false, 0
	}))
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.ExitStatus != 5 || steps != 1 {
		t.Fatalf("status %d after %d steps, want 5 after 1", p.ExitStatus, steps)
	}
}

// TestStepperKilledWhileBlocked: a stepper killed in a blocked syscall
// is never stepped again, even when the syscall could complete, and its
// exit hooks run exactly once.
func TestStepperKilledWhileBlocked(t *testing.T) {
	k := New()
	release := registerBlock(k)
	steps := 0
	p := k.SpawnStepper("blocker", Cred{}, stepFunc(func(*Sys, uint32, int) (Syscall, bool, int) {
		steps++
		return Syscall{No: testBlockNo}, steps > 1, 0
	}))
	hooks := 0
	k.OnExit(func(_ *Kernel, q *Proc) {
		if q == p {
			hooks++
		}
	})
	if err := k.Run(0); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want deadlock with the stepper blocked", err)
	}
	if p.State != StateSleeping || steps != 1 {
		t.Fatalf("state %v after %d steps, want sleeping after 1", p.State, steps)
	}
	k.Kill(p, SIGKILL)
	k.Kill(p, SIGKILL)
	release()
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if steps != 1 {
		t.Fatalf("stepped %d times, want 1: a killed stepper must not run", steps)
	}
	if hooks != 1 {
		t.Fatalf("exit hooks ran %d times, want 1", hooks)
	}
	if p.KilledBy != SIGKILL || p.ExitStatus != 128+SIGKILL {
		t.Fatalf("killed by %d status %d", p.KilledBy, p.ExitStatus)
	}
}

// A blocking syscall from a stepper is a bug: Sys.Call panics.
func TestStepperBlockingCallPanics(t *testing.T) {
	k := New()
	k.SpawnStepper("bad", Cred{}, stepFunc(func(s *Sys, _ uint32, _ int) (Syscall, bool, int) {
		s.Getpid()
		return Syscall{}, true, 0
	}))
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "stepper") {
			t.Fatalf("recovered %v, want the stepper panic", r)
		}
	}()
	_ = k.Run(0)
	t.Fatal("Sys.Call from a stepper did not panic")
}

// getpidYield is a stepper that calls getpid then yield, forever.
type getpidYield struct{ n int }

func (g *getpidYield) Step(*Sys, uint32, int) (Syscall, bool, int) {
	g.n++
	if g.n%2 == 1 {
		return Syscall{No: SYSgetpid}, false, 0
	}
	return Syscall{No: SYSyield}, false, 0
}

// TestStepperGetpidAllocs is TestNativeGetpidAllocs for a stepper: the
// native dispatch loop itself allocates nothing.
func TestStepperGetpidAllocs(t *testing.T) {
	k := New()
	p := k.SpawnStepper("getpid-loop", Cred{UID: 1}, &getpidYield{})
	defer k.Kill(p, SIGKILL)
	round := func() {
		if err := k.dispatch(k.pickNext()); err != nil {
			t.Fatal(err)
		}
	}
	round()
	before := k.SyscallCount
	const runs = 1000
	if n := testing.AllocsPerRun(runs, round); n != 0 {
		t.Fatalf("stepper getpid syscall: %v allocs, want 0", n)
	}
	if got := k.SyscallCount - before; got != 2*(runs+1) {
		t.Fatalf("syscalls = %d, want %d (getpid and yield per run)", got, 2*(runs+1))
	}
}

// waitDone waits for a goroutine adapter to end, failing the test if
// it is still running after a generous bound.
func waitDone(t *testing.T, g *goStepper) {
	t.Helper()
	select {
	case <-g.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the native goroutine was not released")
	}
}

// Killing a native process parked in a syscall releases its goroutine.
func TestNativeKilledWhileParkedReleasesGoroutine(t *testing.T) {
	k := New()
	release := registerBlock(k)
	returned := false
	p := k.SpawnNative("parked", Cred{}, func(s *Sys) int {
		s.Call(testBlockNo)
		returned = true
		return 0
	})
	if err := k.Run(0); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want deadlock with the process parked", err)
	}
	g := p.native.g
	if !g.started {
		t.Fatal("goroutine not started by the first dispatch")
	}
	k.Kill(p, SIGKILL)
	release()
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	waitDone(t, g)
	if returned {
		t.Fatal("the killed process's syscall returned")
	}
}

// A native process killed before its first dispatch never starts a
// goroutine.
func TestNativeKilledBeforeDispatchStartsNoGoroutine(t *testing.T) {
	k := New()
	ran := false
	p := k.SpawnNative("stillborn", Cred{}, func(*Sys) int {
		ran = true
		return 0
	})
	k.Kill(p, SIGKILL)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	g := p.native.g
	select {
	case <-g.done:
		t.Fatal("a goroutine ran for a process killed before dispatch")
	default:
	}
	if g.started || ran {
		t.Fatalf("started %v ran %v, want neither", g.started, ran)
	}
}

// A native process that exits itself by a direct kernel call, while
// its goroutine runs, ends that goroutine at its next syscall, which
// does not return.
func TestNativeKilledWhileRunningEndsAtNextSyscall(t *testing.T) {
	k := New()
	returned := false
	p := k.SpawnNative("self-kill", Cred{}, func(s *Sys) int {
		s.Kernel().Kill(s.Proc(), SIGKILL)
		s.Getpid()
		returned = true
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	waitDone(t, p.native.g)
	if returned {
		t.Fatal("the killed process's syscall returned")
	}
	if p.KilledBy != SIGKILL {
		t.Fatalf("KilledBy = %d, want SIGKILL", p.KilledBy)
	}
}

// A goroutine that ends by runtime.Goexit, as a test driver's t.Fatal
// does, ends its process with status 0, and the kernel runs on.
func TestNativeGoexitEndsProcess(t *testing.T) {
	k := New()
	p := k.SpawnNative("goexit", Cred{}, func(s *Sys) int {
		s.Getpid()
		runtime.Goexit()
		return 7
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	waitDone(t, p.native.g)
	if p.State != StateDead || p.ExitStatus != 0 {
		t.Fatalf("state %v status %d, want dead with status 0", p.State, p.ExitStatus)
	}
}
