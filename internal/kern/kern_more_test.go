package kern

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/vm"
)

func TestMsgsndBlocksWhenQueueFull(t *testing.T) {
	k := New()
	var order []string
	filler := k.SpawnNative("filler", Cred{}, func(s *Sys) int {
		id, _ := s.Msgget(42)
		big := make([]byte, msgqDefaultBytes-100)
		if e := s.Msgsnd(id, 1, big); e != 0 {
			return 1
		}
		order = append(order, "filled")
		// This one exceeds MaxBytes and must block until a reader
		// drains the queue.
		if e := s.Msgsnd(id, 1, make([]byte, 200)); e != 0 {
			return 2
		}
		order = append(order, "second-sent")
		return 0
	})
	k.SpawnNative("drainer", Cred{}, func(s *Sys) int {
		id, _ := s.Msgget(42)
		// Let the filler block first.
		s.Yield()
		s.Yield()
		_, data, e := s.Msgrcv(id, 0, msgqDefaultBytes)
		if e != 0 || len(data) != msgqDefaultBytes-100 {
			return 1
		}
		order = append(order, "drained")
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if filler.ExitStatus != 0 {
		t.Fatalf("filler exited %d", filler.ExitStatus)
	}
	want := []string{"filled", "drained", "second-sent"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestMsgsndRejectsBadType(t *testing.T) {
	k := New()
	var errno int
	k.SpawnNative("p", Cred{}, func(s *Sys) int {
		id, _ := s.Msgget(1)
		errno = s.Msgsnd(id, 0, []byte("x")) // mtype must be > 0
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if errno != EINVAL {
		t.Fatalf("errno = %d, want EINVAL", errno)
	}
}

func TestMsgrcvRejectsOversizedMessage(t *testing.T) {
	k := New()
	var errno int
	k.SpawnNative("p", Cred{}, func(s *Sys) int {
		id, _ := s.Msgget(1)
		s.Msgsnd(id, 1, []byte("0123456789"))
		_, _, errno = s.Msgrcv(id, 0, 4) // smaller than the message
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if errno != EINVAL {
		t.Fatalf("errno = %d, want EINVAL", errno)
	}
}

func TestMsgqBadIDErrors(t *testing.T) {
	k := New()
	var e1, e2 int
	k.SpawnNative("p", Cred{}, func(s *Sys) int {
		e1 = s.Msgsnd(999, 1, []byte("x"))
		_, _, e2 = s.Msgrcv(999, 0, 16)
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if e1 != EINVAL || e2 != EINVAL {
		t.Fatalf("errnos = %d,%d, want EINVAL", e1, e2)
	}
}

func TestKernelMsgqHelpers(t *testing.T) {
	k := New()
	id := k.AllocMsgq()
	if err := k.MsgSendKernel(id, 7, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	var dst [8]byte
	n, got := k.MsgRecvKernel(id, 7, dst[:])
	if !got || n != 3 || string(dst[:n]) != "abc" {
		t.Fatalf("n = %d, payload %q, got=%v", n, dst[:n], got)
	}
	if _, got := k.MsgRecvKernel(id, 0, dst[:]); got {
		t.Fatal("empty queue returned a message")
	}
	// A payload longer than dst fills dst and reports its full length.
	if err := k.MsgSendKernel(id, 2, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	if n, got := k.MsgRecvKernel(id, 2, dst[:2]); !got || n != 6 || string(dst[:2]) != "ab" {
		t.Fatalf("short dst: n = %d, dst %q, got=%v, want 6 and \"ab\"", n, dst[:2], got)
	}
	k.FreeMsgq(id)
	if err := k.MsgSendKernel(id, 1, nil); err == nil {
		t.Fatal("send to freed queue succeeded")
	}
}

func TestMsgSendKernelWakesSyscallReader(t *testing.T) {
	k := New()
	// Kernel-allocated queue, known before any process runs.
	id := k.AllocMsgq()
	var payload string
	reader := k.SpawnNative("reader", Cred{}, func(s *Sys) int {
		_, data, e := s.Msgrcv(id, 0, 64)
		if e != 0 {
			return 1
		}
		payload = string(data)
		return 0
	})
	// A second process performs the kernel-side send (kernel state may
	// only change from the scheduler's context).
	k.SpawnNative("writer", Cred{}, func(s *Sys) int {
		if err := k.MsgSendKernel(id, 3, []byte("kernel-side")); err != nil {
			return 1
		}
		return 0
	})
	if err := k.RunUntil(func() bool {
		return reader.State == StateZombie || reader.State == StateDead
	}, 0); err != nil {
		t.Fatal(err)
	}
	if payload != "kernel-side" {
		t.Fatalf("payload = %q", payload)
	}
}

func TestRecvfromBadFD(t *testing.T) {
	k := New()
	var errno int
	k.SpawnNative("p", Cred{}, func(s *Sys) int {
		_, _, errno = s.Recvfrom(42, 16)
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if errno != EBADF {
		t.Fatalf("errno = %d, want EBADF", errno)
	}
}

func TestSocketClosedOnExitReleasesPort(t *testing.T) {
	k := New()
	first := k.SpawnNative("first", Cred{}, func(s *Sys) int {
		fd, _ := s.Socket()
		return s.Bind(fd, 99)
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if first.ExitStatus != 0 {
		t.Fatalf("first bind failed: %d", first.ExitStatus)
	}
	// After the first process died, the port must be free again.
	second := k.SpawnNative("second", Cred{}, func(s *Sys) int {
		fd, _ := s.Socket()
		return s.Bind(fd, 99)
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if second.ExitStatus != 0 {
		t.Fatalf("port not released: bind errno %d", second.ExitStatus)
	}
}

func TestSocketRebindMovesPort(t *testing.T) {
	k := New()
	var e1, e2 int
	var delivered bool
	k.SpawnNative("p", Cred{}, func(s *Sys) int {
		fd, _ := s.Socket()
		e1 = s.Bind(fd, 10)
		e2 = s.Bind(fd, 11) // rebinding moves, frees port 10
		fd2, _ := s.Socket()
		if e := s.Bind(fd2, 10); e != 0 {
			return 1
		}
		if e := s.Sendto(fd2, 11, []byte("m")); e != 0 {
			return 2
		}
		data, _, e := s.Recvfrom(fd, 16)
		delivered = e == 0 && string(data) == "m"
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if e1 != 0 || e2 != 0 {
		t.Fatalf("binds failed: %d %d", e1, e2)
	}
	if !delivered {
		t.Fatal("datagram not delivered to rebound port")
	}
}

func TestCopyInStrUnterminated(t *testing.T) {
	k := New()
	p := k.SpawnNative("p", Cred{}, func(s *Sys) int { return 0 })
	// Fill a whole region with non-zero bytes.
	buf := make([]byte, 2048)
	for i := range buf {
		buf[i] = 'A'
	}
	if err := p.Space.WriteBytes(UserDataBase, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := k.CopyInStr(p, UserDataBase); err == nil {
		t.Fatal("unterminated string accepted")
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestWriteTextBypassesProtection(t *testing.T) {
	s := vm.NewSpace(nil, nil)
	if _, err := s.Map(0x1000, mem.PageSize, vm.ProtRX, "text"); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(s, 0x1000, []byte{1, 2, 3}); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	b, err := ReadText(s, 0x1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 1 || b[2] != 3 {
		t.Fatalf("b = %v", b)
	}
	// Protection must be restored afterwards.
	if e := s.FindEntry(0x1000); e.Prot != vm.ProtRX {
		t.Fatalf("prot = %v, want r-x", e.Prot)
	}
	// And user-level writes still fault.
	if err := s.WriteBytes(0x1000, []byte{9}); err == nil {
		t.Fatal("user write to R-X text succeeded")
	}
}

func TestWriteTextNoMapping(t *testing.T) {
	s := vm.NewSpace(nil, nil)
	if err := WriteText(s, 0x5000, []byte{1}); err == nil {
		t.Fatal("WriteText to unmapped address succeeded")
	}
	if _, err := ReadText(s, 0x5000, 1); err == nil {
		t.Fatal("ReadText from unmapped address succeeded")
	}
}

func TestSpawnProgramUnknownPath(t *testing.T) {
	k := New()
	if _, err := k.SpawnProgram("/missing", Cred{}); err == nil {
		t.Fatal("spawn of unregistered program succeeded")
	}
}

func TestRunCycleBudget(t *testing.T) {
	k := New()
	k.SpawnNative("spinner", Cred{}, func(s *Sys) int {
		for {
			s.Yield()
		}
	})
	if err := k.Run(100_000); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("err = %v, want cycle budget exhaustion", err)
	}
}

func TestWait4SpecificPID(t *testing.T) {
	k := New()
	var reaped []int
	parentDone := false
	parent := k.SpawnNative("parent", Cred{}, func(s *Sys) int {
		parentDone = true
		return 0
	})
	_ = parent
	// Native processes cannot fork; emulate the hierarchy with SM32.
	im := buildProg(t, `
.text
.global _start
_start:
	TRAP 2
	PUSHRV
	JZ child1
	TRAP 2
	PUSHRV
	JZ child2
	; wait for each child by -1 twice
	PUSHI 0
	PUSHI -1
	TRAP 7
	ADDSP 8
	PUSHI 0
	PUSHI -1
	TRAP 7
	ADDSP 8
	PUSHI 0
	TRAP 1
child1:
	PUSHI 11
	TRAP 1
child2:
	PUSHI 12
	TRAP 1
`)
	p, err := k.Spawn("forker", Cred{}, im)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.ExitStatus != 0 {
		t.Fatalf("parent exited %d", p.ExitStatus)
	}
	_ = reaped
	_ = parentDone
}

func TestNativeScratchHelpers(t *testing.T) {
	k := New()
	k.SpawnNative("p", Cred{}, func(s *Sys) int {
		addr := s.StageBytes([]byte{1, 2, 3})
		b, err := s.Proc().Space.ReadBytes(addr, 3)
		if err != nil || b[0] != 1 || b[2] != 3 {
			return 1
		}
		sa := s.StageString("hi")
		v, err := s.Proc().Space.Read8(sa + 2)
		if err != nil || v != 0 {
			return 2 // missing NUL
		}
		top := s.ReserveTop(128)
		if top%4 != 0 {
			return 3
		}
		// Reserved block must not be handed out by later stage calls.
		for i := 0; i < 10000; i++ {
			a := s.AllocScratch(64)
			if a+64 > top-128+128 && a < top {
				if a+64 > top-128 && a < top {
					return 4
				}
			}
		}
		return 0
	})
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[ProcState]string{
		StateRunnable: "runnable",
		StateRunning:  "running",
		StateSleeping: "sleeping",
		StateZombie:   "zombie",
		StateDead:     "dead",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestKillRedirectSkipsDeadClient(t *testing.T) {
	k := New()
	// A handle whose paired client is already dead: kill must not panic
	// and must terminate the handle itself.
	handle := k.SpawnNative("handle", Cred{}, func(s *Sys) int {
		for {
			s.Yield()
		}
	})
	client := k.SpawnNative("client", Cred{}, func(s *Sys) int { return 0 })
	handle.IsHandle = true
	handle.Pair = client
	killer := k.SpawnNative("killer", Cred{}, func(s *Sys) int {
		// Hold the proc pointer: a parentless proc is reaped out of the
		// process table on exit, so Proc(pid) goes nil once it dies.
		for client.State != StateDead && client.State != StateZombie {
			s.Yield()
		}
		return s.Kill(handle.PID, SIGKILL)
	})
	if err := k.RunUntil(func() bool {
		return killer.State == StateZombie || killer.State == StateDead
	}, 0); err != nil {
		t.Fatal(err)
	}
	// The signal was redirected at the (dead) client; per BSD semantics
	// killing a zombie is ESRCH-ish; we accept either outcome as long
	// as nothing crashed and the kernel stays consistent.
	if err := k.RunUntil(func() bool { return true }, 0); err != nil {
		t.Fatal(err)
	}
}
