package kern

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/obj"
)

// buildProg assembles and links a standalone SM32 program.
func buildProg(t testing.TB, src string) *obj.Image {
	t.Helper()
	o, err := asm.Assemble("prog.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	im, err := obj.Link(obj.LinkOptions{TextBase: UserTextBase, DataBase: UserDataBase}, []*obj.Object{o})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return im
}

func TestSpawnExitStatus(t *testing.T) {
	k := New()
	im := buildProg(t, `
.text
.global _start
_start:
	PUSHI 42
	TRAP 1
`)
	p, err := k.Spawn("exit42", Cred{UID: 1}, im)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.State != StateZombie && p.State != StateDead {
		t.Fatalf("state = %v, want exited", p.State)
	}
	if p.ExitStatus != 42 {
		t.Fatalf("exit status = %d, want 42", p.ExitStatus)
	}
}

func TestWriteReachesConsole(t *testing.T) {
	k := New()
	im := buildProg(t, `
.text
.global _start
_start:
	PUSHI 6
	PUSHI msg
	PUSHI 1
	TRAP 4
	ADDSP 12
	PUSHI 0
	TRAP 1
.data
msg: .asciz "hello"
`)
	if _, err := k.Spawn("writer", Cred{}, im); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := string(k.Console); got != "hello\x00" {
		t.Fatalf("console = %q, want %q", got, "hello\x00")
	}
}

func TestGetpidReturnsOwnPID(t *testing.T) {
	k := New()
	// Exit with our own pid as status.
	im := buildProg(t, `
.text
.global _start
_start:
	TRAP 20
	PUSHRV
	TRAP 1
`)
	p, err := k.Spawn("pid", Cred{}, im)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.ExitStatus != p.PID {
		t.Fatalf("getpid = %d, want %d", p.ExitStatus, p.PID)
	}
}

func TestForkAndWait(t *testing.T) {
	k := New()
	// Parent forks; the child exits 7; the parent waits and exits with
	// the child's status decoded from the status word.
	im := buildProg(t, `
.text
.global _start
_start:
	TRAP 2
	PUSHRV
	JZ child
	; parent: wait4(-1, &status)
	PUSHI status
	PUSHI -1
	TRAP 7
	ADDSP 8
	PUSHI status
	LOAD
	TRAP 1
child:
	PUSHI 7
	TRAP 1
.data
status: .word 0
`)
	p, err := k.Spawn("forker", Cred{}, im)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.ExitStatus != 7 {
		t.Fatalf("parent observed child status %d, want 7", p.ExitStatus)
	}
}

func TestForkChildIsolationCOW(t *testing.T) {
	k := New()
	// Parent writes 1 to a data word, forks; the child overwrites it
	// with 99 and exits with the parent's view unaffected: parent exits
	// with its own (still 1) value plus the child's status.
	im := buildProg(t, `
.text
.global _start
_start:
	PUSHI 1
	PUSHI val
	STORE
	TRAP 2
	PUSHRV
	JZ child
	PUSHI 0
	PUSHI -1
	TRAP 7
	ADDSP 8
	PUSHI val
	LOAD
	TRAP 1
child:
	PUSHI 99
	PUSHI val
	STORE
	PUSHI 0
	TRAP 1
.data
val: .word 0
`)
	p, err := k.Spawn("cow", Cred{}, im)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.ExitStatus != 1 {
		t.Fatalf("parent saw val=%d after child wrote 99; COW broken", p.ExitStatus)
	}
}

// TestForkBetweenRunsBreaksCOWOnPush: the translations a process keeps
// from one run to the next do not survive a fork. One run fills the
// write window on the stack page; a fork between that run and the next
// makes the page copy-on-write, so the next push must break
// copy-on-write instead of writing to the page the child shares.
func TestForkBetweenRunsBreaksCOWOnPush(t *testing.T) {
	k := New()
	p, err := k.Spawn("pusher", Cred{}, buildProg(t, `
.text
.global _start
_start:
	PUSHI 1
	PUSHI 2
	PUSHI 3
	HALT
`))
	if err != nil {
		t.Fatal(err)
	}
	// One slice of two pushes: the first faults the stack page in, the
	// second hits the TLB and fills the write window.
	k.MaxStepsPerSlice = 2
	if err := k.dispatch(k.pickNext()); err != nil {
		t.Fatal(err)
	}
	child := k.ForkInto(p, "child")
	defer k.Kill(child, SIGKILL)
	k.MaxStepsPerSlice = 1
	if err := k.dispatch(k.pickNext()); err != nil {
		t.Fatal(err)
	}
	const slot = UserStackTop - 12 // where PUSHI 3 writes
	if v, err := child.Space.Read32(slot); err != nil || v != 0 {
		t.Fatalf("child's stack word = %d, %v; the parent's push after the fork reached it", v, err)
	}
	if v, err := p.Space.Read32(slot); err != nil || v != 3 {
		t.Fatalf("parent's stack word = %d, %v; want 3", v, err)
	}
	if p.Space.COWCopies != 1 {
		t.Fatalf("parent broke copy-on-write %d times, want 1", p.Space.COWCopies)
	}
}

func TestNativeProcessRunsAndExits(t *testing.T) {
	k := New()
	var sawPID int
	p := k.SpawnNative("nat", Cred{UID: 3}, func(s *Sys) int {
		sawPID = s.Getpid()
		return 5
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if sawPID != p.PID {
		t.Fatalf("native getpid = %d, want %d", sawPID, p.PID)
	}
	if p.ExitStatus != 5 {
		t.Fatalf("exit = %d, want 5", p.ExitStatus)
	}
}

func TestNativeWrite(t *testing.T) {
	k := New()
	k.SpawnNative("nat", Cred{}, func(s *Sys) int {
		n, e := s.Write(1, []byte("native hello\n"))
		if e != 0 || n != 13 {
			return 1
		}
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(k.Console), "native hello") {
		t.Fatalf("console = %q", k.Console)
	}
}

func TestNativeExitHelper(t *testing.T) {
	k := New()
	p := k.SpawnNative("nat", Cred{}, func(s *Sys) int {
		s.Exit(9)
		t.Error("Exit returned")
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.ExitStatus != 9 {
		t.Fatalf("exit = %d, want 9", p.ExitStatus)
	}
}

func TestMsgqRoundTripBetweenNatives(t *testing.T) {
	k := New()
	const key = 1234
	var got string
	k.SpawnNative("sender", Cred{}, func(s *Sys) int {
		id, e := s.Msgget(key)
		if e != 0 {
			return 1
		}
		if e := s.Msgsnd(id, 7, []byte("ping")); e != 0 {
			return 2
		}
		return 0
	})
	k.SpawnNative("receiver", Cred{}, func(s *Sys) int {
		id, e := s.Msgget(key)
		if e != 0 {
			return 1
		}
		mtype, data, e := s.Msgrcv(id, 0, 64)
		if e != 0 {
			return 2
		}
		if mtype != 7 {
			return 3
		}
		got = string(data)
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != "ping" {
		t.Fatalf("received %q, want %q", got, "ping")
	}
}

func TestMsgrcvBlocksUntilSend(t *testing.T) {
	k := New()
	var order []string
	// Receiver starts first and must block; sender runs later.
	k.SpawnNative("receiver", Cred{}, func(s *Sys) int {
		id, _ := s.Msgget(99)
		_, data, e := s.Msgrcv(id, 0, 64)
		if e != 0 {
			return 1
		}
		order = append(order, "recv:"+string(data))
		return 0
	})
	k.SpawnNative("sender", Cred{}, func(s *Sys) int {
		id, _ := s.Msgget(99)
		order = append(order, "send")
		if e := s.Msgsnd(id, 1, []byte("x")); e != 0 {
			return 1
		}
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "send" || order[1] != "recv:x" {
		t.Fatalf("order = %v", order)
	}
}

func TestMsgrcvByType(t *testing.T) {
	k := New()
	var got []string
	k.SpawnNative("p", Cred{}, func(s *Sys) int {
		id, _ := s.Msgget(5)
		s.Msgsnd(id, 1, []byte("one"))
		s.Msgsnd(id, 2, []byte("two"))
		// Type-selective receive takes type 2 first.
		_, d, _ := s.Msgrcv(id, 2, 64)
		got = append(got, string(d))
		_, d, _ = s.Msgrcv(id, 0, 64)
		got = append(got, string(d))
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "two" || got[1] != "one" {
		t.Fatalf("got = %v", got)
	}
}

func TestSocketDatagramRoundTrip(t *testing.T) {
	k := New()
	var reply string
	k.SpawnNative("server", Cred{}, func(s *Sys) int {
		fd, _ := s.Socket()
		if e := s.Bind(fd, 111); e != 0 {
			return 1
		}
		data, src, e := s.Recvfrom(fd, 1024, nil)
		if e != 0 {
			return 2
		}
		if e := s.Sendto(fd, src, append([]byte("re:"), data...)); e != 0 {
			return 3
		}
		return 0
	})
	k.SpawnNative("client", Cred{}, func(s *Sys) int {
		fd, _ := s.Socket()
		if e := s.Bind(fd, 222); e != 0 {
			return 1
		}
		if e := s.Sendto(fd, 111, []byte("hi")); e != 0 {
			return 2
		}
		data, _, e := s.Recvfrom(fd, 1024, nil)
		if e != 0 {
			return 3
		}
		reply = string(data)
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if reply != "re:hi" {
		t.Fatalf("reply = %q, want %q", reply, "re:hi")
	}
}

func TestBindPortCollision(t *testing.T) {
	k := New()
	var e1, e2 int
	k.SpawnNative("a", Cred{}, func(s *Sys) int {
		fd, _ := s.Socket()
		e1 = s.Bind(fd, 7)
		s.Yield()
		s.Yield()
		return 0
	})
	k.SpawnNative("b", Cred{}, func(s *Sys) int {
		fd, _ := s.Socket()
		e2 = s.Bind(fd, 7)
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if e1 != 0 {
		t.Fatalf("first bind failed: %d", e1)
	}
	if e2 != EEXIST {
		t.Fatalf("second bind errno = %d, want EEXIST", e2)
	}
}

func TestSendToUnboundPortIsDropped(t *testing.T) {
	k := New()
	k.SpawnNative("c", Cred{}, func(s *Sys) int {
		fd, _ := s.Socket()
		if e := s.Sendto(fd, 4242, []byte("void")); e != 0 {
			return 1
		}
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestPtraceOfHandleDenied(t *testing.T) {
	k := New()
	var errOrdinary, errHandle int
	victim := k.SpawnNative("victim", Cred{}, func(s *Sys) int {
		for i := 0; i < 10; i++ {
			s.Yield()
		}
		return 0
	})
	handle := k.SpawnNative("handle", Cred{}, func(s *Sys) int {
		for i := 0; i < 10; i++ {
			s.Yield()
		}
		return 0
	})
	handle.IsHandle = true
	k.SpawnNative("tracer", Cred{}, func(s *Sys) int {
		_, errOrdinary = s.Call(SYSptrace, 0, uint32(victim.PID), 0, 0)
		_, errHandle = s.Call(SYSptrace, 0, uint32(handle.PID), 0, 0)
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if errOrdinary != 0 {
		t.Fatalf("ptrace of ordinary process errno = %d, want 0", errOrdinary)
	}
	if errHandle != EPERM {
		t.Fatalf("ptrace of handle errno = %d, want EPERM", errHandle)
	}
}

func TestHandleNeverDumpsCore(t *testing.T) {
	k := New()
	// A program that faults immediately (LOAD from unmapped address).
	src := `
.text
.global _start
_start:
	PUSHI 0xE0000000
	LOAD
	TRAP 1
`
	im := buildProg(t, src)
	ordinary, err := k.Spawn("crasher", Cred{}, im)
	if err != nil {
		t.Fatal(err)
	}
	handle, err := k.Spawn("handle-crasher", Cred{}, im)
	if err != nil {
		t.Fatal(err)
	}
	handle.IsHandle = true
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !k.Cores[ordinary.PID] {
		t.Fatal("ordinary crasher should dump core")
	}
	if k.Cores[handle.PID] {
		t.Fatal("handle dumped core; section 3.1 item 3 violated")
	}
	if ordinary.KilledBy != SIGSEGV || handle.KilledBy != SIGSEGV {
		t.Fatalf("signals = %d,%d want SIGSEGV", ordinary.KilledBy, handle.KilledBy)
	}
}

func TestGetpidFromHandleReportsClient(t *testing.T) {
	k := New()
	var got int
	client := k.SpawnNative("client", Cred{}, func(s *Sys) int {
		for i := 0; i < 20; i++ {
			s.Yield()
		}
		return 0
	})
	handle := k.SpawnNative("handle", Cred{}, func(s *Sys) int {
		got = s.Getpid()
		return 0
	})
	handle.IsHandle = true
	handle.Pair = client
	if err := k.RunUntil(func() bool { return handle.State == StateZombie || handle.State == StateDead }, 0); err != nil {
		t.Fatal(err)
	}
	if got != client.PID {
		t.Fatalf("handle getpid = %d, want client pid %d (section 4.3)", got, client.PID)
	}
}

func TestSignalToHandleRedirectsToClient(t *testing.T) {
	k := New()
	client := k.SpawnNative("client", Cred{}, func(s *Sys) int {
		for i := 0; i < 1000; i++ {
			s.Yield()
		}
		return 0
	})
	handle := k.SpawnNative("handle", Cred{}, func(s *Sys) int {
		for i := 0; i < 1000; i++ {
			s.Yield()
		}
		return 0
	})
	handle.IsHandle = true
	handle.Pair = client
	client.Pair = handle
	k.SpawnNative("killer", Cred{}, func(s *Sys) int {
		s.Kill(handle.PID, SIGKILL)
		return 0
	})
	if err := k.RunUntil(func() bool {
		return client.State == StateZombie || client.State == StateDead
	}, 0); err != nil {
		t.Fatal(err)
	}
	if client.KilledBy != SIGKILL {
		t.Fatalf("client KilledBy = %d, want SIGKILL (signal redirected)", client.KilledBy)
	}
}

func TestObreakGrowsHeap(t *testing.T) {
	k := New()
	// Grow the heap by 8 KB and store/load across the new pages.
	im := buildProg(t, `
.text
.global _start
_start:
	TRAP 20          ; something harmless to warm up
	PUSHI 0x00410000 ; new break well above bss
	TRAP 17
	ADDSP 4
	PUSHI 77
	PUSHI 0x0040F000
	STORE
	PUSHI 0x0040F000
	LOAD
	TRAP 1
`)
	p, err := k.Spawn("heap", Cred{}, im)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.ExitStatus != 77 {
		t.Fatalf("heap readback = %d, want 77", p.ExitStatus)
	}
}

func TestExecveReplacesImage(t *testing.T) {
	k := New()
	second := buildProg(t, `
.text
.global _start
_start:
	PUSHI 33
	TRAP 1
`)
	k.RegisterProgram("/bin/second", second)
	first := buildProg(t, `
.text
.global _start
_start:
	PUSHI 0
	PUSHI 0
	PUSHI path
	TRAP 59
	; unreachable on success
	PUSHI 1
	TRAP 1
.data
path: .asciz "/bin/second"
`)
	p, err := k.Spawn("execer", Cred{}, first)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.ExitStatus != 33 {
		t.Fatalf("exit = %d, want 33 from the exec'd image", p.ExitStatus)
	}
}

func TestExecveMissingProgram(t *testing.T) {
	k := New()
	var errno int
	k.SpawnNative("nat", Cred{}, func(s *Sys) int {
		addr := s.stageStr("/no/such/prog")
		_, errno = s.Call(SYSexecve, addr, 0, 0)
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if errno != ENOENT {
		t.Fatalf("errno = %d, want ENOENT", errno)
	}
}

func TestUnknownSyscallENOSYS(t *testing.T) {
	k := New()
	var errno int
	k.SpawnNative("nat", Cred{}, func(s *Sys) int {
		_, errno = s.Call(9999)
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if errno != ENOSYS {
		t.Fatalf("errno = %d, want ENOSYS", errno)
	}
}

func TestKillNativeMidRun(t *testing.T) {
	k := New()
	victim := k.SpawnNative("victim", Cred{}, func(s *Sys) int {
		for {
			s.Yield()
		}
	})
	k.SpawnNative("killer", Cred{}, func(s *Sys) int {
		s.Yield()
		s.Kill(victim.PID, SIGKILL)
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if victim.KilledBy != SIGKILL {
		t.Fatalf("victim KilledBy = %d", victim.KilledBy)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := New()
	k.SpawnNative("stuck", Cred{}, func(s *Sys) int {
		fd, _ := s.Socket()
		s.Bind(fd, 1)
		s.Recvfrom(fd, 64, nil) // nothing will ever arrive
		return 0
	})
	err := k.Run(0)
	if err != ErrDeadlock {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestSchedulerIsDeterministic(t *testing.T) {
	run := func() (uint64, uint64, string) {
		k := New()
		for i := 0; i < 3; i++ {
			name := string(rune('a' + i))
			k.SpawnNative(name, Cred{}, func(s *Sys) int {
				for j := 0; j < 5; j++ {
					s.Write(1, []byte(name))
					s.Yield()
				}
				return 0
			})
		}
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		return k.Clk.Cycles(), k.ContextSwitches, string(k.Console)
	}
	c1, s1, o1 := run()
	c2, s2, o2 := run()
	if c1 != c2 || s1 != s2 || o1 != o2 {
		t.Fatalf("nondeterministic: (%d,%d,%q) vs (%d,%d,%q)", c1, s1, o1, c2, s2, o2)
	}
}

func TestTimerPreemptsSM32Loop(t *testing.T) {
	k := New()
	// Make the timer interrupt the only preemption source, then check
	// that a second process still gets CPU time past an infinite loop.
	k.MaxStepsPerSlice = 1 << 30
	im := buildProg(t, `
.text
.global _start
_start:
loop:
	JMP loop
`)
	if _, err := k.Spawn("spinner", Cred{}, im); err != nil {
		t.Fatal(err)
	}
	ran := false
	k.SpawnNative("other", Cred{}, func(s *Sys) int {
		ran = true
		return 0
	})
	if err := k.RunUntil(func() bool { return ran }, 0); err != nil {
		t.Fatal(err)
	}
	if k.Clk.Ticks() == 0 {
		t.Fatal("no timer ticks fired")
	}
}

// TestRetriedSyscallTickPreempts: a tick fired by the syscall a blocked
// SM32 process retries at the top of its dispatch preempts it after
// exactly one more instruction, the same as a tick fired by any other
// syscall.
func TestRetriedSyscallTickPreempts(t *testing.T) {
	k := New()
	const tickNo = 398
	open := false
	var q WaitQ
	k.RegisterSyscall(tickNo, "test_tick", 0, func(k *Kernel, _ *Proc, _ []uint32) Sysret {
		if !open {
			return Sysret{BlockOn: &q}
		}
		k.Clk.Advance(k.Clk.UntilTick())
		return Sysret{}
	})
	// PUSHI 0 faults the stack page in, so the instructions after the
	// retried TRAP run from TLB hits: without the kernel's one-instruction
	// rule, Exec would run on to the next TRAP.
	p, err := k.Spawn("ticker", Cred{}, buildProg(t, `
.text
.global _start
_start:
	PUSHI 0
	DROP
loop:
	TRAP 398
	PUSHI 1
	DROP
	JMP loop
`))
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(0); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want deadlock with the process blocked", err)
	}
	pc, ticks := p.CPU.PC, k.Clk.Ticks()
	open = true
	k.Wakeup(&q)
	if err := k.dispatch(k.pickNext()); err != nil {
		t.Fatal(err)
	}
	if k.Clk.Ticks() != ticks+1 {
		t.Fatalf("ticks %d -> %d, want one from the retried syscall", ticks, k.Clk.Ticks())
	}
	if p.CPU.PC != pc+5 || p.State != StateRunnable {
		t.Fatalf("preempted at PC %#x in state %v, want PC %#x (one PUSHI past the TRAP), runnable",
			p.CPU.PC, p.State, pc+5)
	}
}

func TestSyscallChargesCycles(t *testing.T) {
	k := New()
	k.SpawnNative("nat", Cred{}, func(s *Sys) int {
		before := s.Kernel().Clk.Cycles()
		s.Getpid()
		after := s.Kernel().Clk.Cycles()
		if after <= before {
			return 1
		}
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestWait4NoChildren(t *testing.T) {
	k := New()
	var errno int
	k.SpawnNative("lonely", Cred{}, func(s *Sys) int {
		_, _, errno = s.Wait4(-1)
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if errno != ECHILD {
		t.Fatalf("errno = %d, want ECHILD", errno)
	}
}

func TestForkIntoSharesNothingByDefault(t *testing.T) {
	k := New()
	im := buildProg(t, `
.text
.global _start
_start:
	PUSHI 0
	TRAP 1
`)
	p, err := k.Spawn("base", Cred{UID: 4}, im)
	if err != nil {
		t.Fatal(err)
	}
	child := k.ForkInto(p, "forced-child")
	if child.Parent != p {
		t.Fatal("parent link missing")
	}
	if child.Cred.UID != 4 {
		t.Fatal("cred not inherited")
	}
	// ForkInto leaves the child unqueued; Ready puts it on the run queue.
	k.Ready(child)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestConsoleCollectsAcrossProcs(t *testing.T) {
	k := New()
	k.SpawnNative("a", Cred{}, func(s *Sys) int { s.Write(1, []byte("A")); return 0 })
	k.SpawnNative("b", Cred{}, func(s *Sys) int { s.Write(2, []byte("B")); return 0 })
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	out := string(k.Console)
	if !strings.Contains(out, "A") || !strings.Contains(out, "B") {
		t.Fatalf("console = %q", out)
	}
}
