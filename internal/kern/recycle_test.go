package kern

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// A kernel reuses a freed message queue and a released process
// descriptor for the next one it builds. A reused object must read
// exactly as a freshly built one: anything left over would leak one
// session's state into the next.

// msgqView is what a queue reads as, without the capacity it keeps.
func msgqView(q *MsgQueue) string {
	return fmt.Sprintf("id=%d key=%d max=%d len=%d bytes=%d readers=%d writers=%d",
		q.ID, q.Key, q.MaxBytes, len(q.msgs), q.bytes, len(q.readers.waiters), len(q.writers.waiters))
}

// TestRecycledMsgqReadsFresh frees a queue holding a message, a spare
// buffer and a blocked reader, and checks that the next AllocMsgq
// reuses it, reads as a fresh queue, and works as one.
func TestRecycledMsgqReadsFresh(t *testing.T) {
	k := New()
	id := k.AllocMsgq()
	old := k.msgqs[id]
	for _, pl := range []string{"delivered", "left queued"} {
		if err := k.MsgSendKernel(id, 1, []byte(pl)); err != nil {
			t.Fatal(err)
		}
	}
	var b [16]byte
	if _, ok := k.MsgRecvKernel(id, 0, b[:]); !ok {
		t.Fatal("no message")
	}
	var rerr int
	reader := k.SpawnNative("reader", Cred{}, func(s *Sys) int {
		_, _, rerr = s.Msgrcv(id, 2, 64) // only type 1 is queued
		return 0
	})
	if err := k.Run(0); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want deadlock with the reader asleep", err)
	}
	k.FreeMsgq(id)

	id2 := k.AllocMsgq()
	q := k.msgqs[id2]
	if q != old {
		t.Fatal("AllocMsgq did not reuse the freed queue")
	}
	fresh := New()
	want := fresh.msgqs[fresh.AllocMsgq()]
	want.ID = id2
	if got, want := msgqView(q), msgqView(want); got != want {
		t.Fatalf("recycled queue reads %s, want %s", got, want)
	}
	if len(q.spare) == 0 {
		t.Fatal("recycled queue dropped its spare buffers")
	}
	if err := k.MsgSendKernel(id2, 3, []byte("next session")); err != nil {
		t.Fatal(err)
	}
	n, ok := k.MsgRecvKernel(id2, 0, b[:])
	if !ok || string(b[:n]) != "next session" {
		t.Fatalf("recycled queue delivered %q, %v", b[:n], ok)
	}
	// The reader blocked on the freed queue was woken and failed; it
	// must not be asleep on the reused one.
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if reader.State != StateDead || rerr != EINVAL {
		t.Fatalf("reader of the freed queue is %v with errno %d, want done with EINVAL", reader.State, rerr)
	}
}

// exitStepper is a native body that exits with status 3 on its first
// step.
var exitStepper = stepFunc(func(*Sys, uint32, int) (Syscall, bool, int) { return Syscall{}, true, 3 })

// procView is what a descriptor reads as, without the address space
// and native handle every process gets its own of.
func procView(p *Proc) Proc {
	v := *p
	v.Space, v.native = nil, nil
	return v
}

// sysView is what a native handle reads as, without its kernel,
// process and body.
func sysView(s *Sys) Sys {
	v := *s
	v.k, v.p, v.step = nil, nil, nil
	return v
}

// TestReleasedProcReadsFresh runs a stepper to its exit, releases it,
// and checks that the next stepper spawned reuses the descriptor and
// its Sys and reads exactly as the same stepper spawned on a kernel
// that never released one.
func TestReleasedProcReadsFresh(t *testing.T) {
	spawnTwo := func(release bool) (*Kernel, *Proc, *Proc) {
		k := New()
		first := k.SpawnStepper("first", Cred{UID: 7, Name: "a"}, exitStepper)
		if err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		if release {
			k.Release(first)
		}
		return k, first, k.SpawnStepper("second", Cred{UID: 1, Name: "b"}, exitStepper)
	}
	_, first, reused := spawnTwo(true)
	_, _, fresh := spawnTwo(false)
	if reused != first {
		t.Fatal("the released descriptor was not reused")
	}
	if got, want := procView(reused), procView(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("reused descriptor reads\n%+v\nwant\n%+v", got, want)
	}
	if got, want := sysView(reused.native), sysView(fresh.native); got != want {
		t.Fatalf("reused Sys reads %+v, want %+v", got, want)
	}
}

// TestReleasedProcWaitsForKernel: a released descriptor is reused only
// once the kernel lets go of it. One still linked in the run queue
// waits for the scheduler to pass over it, and the process that ran
// last loses that mark, so the next dispatch of whatever reuses it pays
// a full context switch.
func TestReleasedProcWaitsForKernel(t *testing.T) {
	k := New()
	queued := k.SpawnStepper("queued", Cred{}, exitStepper)
	k.Kill(queued, SIGKILL)
	k.Release(queued)
	if p := k.SpawnStepper("other", Cred{}, exitStepper); p == queued {
		t.Fatal("a descriptor still on the run queue was reused")
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	last := k.SpawnStepper("last", Cred{}, exitStepper)
	if last != queued {
		t.Fatal("the descriptor was not reused once dequeued")
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	k.Release(last) // it ran last
	switches := k.ContextSwitches
	again := k.SpawnStepper("again", Cred{}, exitStepper)
	if again != last {
		t.Fatal("the descriptor was not reused")
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if k.ContextSwitches != switches+1 {
		t.Fatalf("%d context switches for the reused descriptor's dispatch, want 1", k.ContextSwitches-switches)
	}
}

// TestOrphanOutlivesReusedParent: a child that outlives its parent
// forgets it, so reusing the parent's descriptor cannot make the child
// wake, or wait to be reaped by, an unrelated process.
func TestOrphanOutlivesReusedParent(t *testing.T) {
	k := New()
	parent, err := k.Spawn("parent", Cred{}, buildProg(t, `
.text
.global _start
_start:
	TRAP 2
	PUSHRV
	JZ child
	PUSHI 0
	TRAP 1
child:
	TRAP 298
	TRAP 298
	PUSHI 5
	TRAP 1
`))
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(func() bool { return parent.State == StateDead }, 0); err != nil {
		t.Fatal(err)
	}
	if len(k.procs) != 1 {
		t.Fatalf("%d processes, want the child alone", len(k.procs))
	}
	var child *Proc
	for _, p := range k.procs {
		child = p
	}
	if child.Parent != nil {
		t.Fatal("the orphan still points at its dead parent")
	}
	parent.released = true // as Release would; the test built parent itself
	k.recycle(parent)
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if child.State != StateDead || child.ExitStatus != 5 {
		t.Fatalf("orphan is %v with status %d, want reaped with 5", child.State, child.ExitStatus)
	}
}

// loopback is a native body that makes two loopback sockets and then
// sends one datagram from the first to the second, receives it and
// yields, forever.
type loopback struct {
	n                int
	tx, rx, buf, src uint32
}

const loopbackPort = 5353

func (l *loopback) Step(s *Sys, val uint32, errno int) (Syscall, bool, int) {
	if errno != 0 {
		return Syscall{}, true, errno
	}
	l.n++
	switch l.n {
	case 1:
		return Syscall{No: SYSsocket, Args: [6]uint32{afLocalSim, sockDgram}}, false, 0
	case 2:
		l.tx = val
		return Syscall{No: SYSsocket, Args: [6]uint32{afLocalSim, sockDgram}}, false, 0
	case 3:
		l.rx = val
		return Syscall{No: SYSbind, Args: [6]uint32{l.rx, loopbackPort}}, false, 0
	case 4:
		l.buf, l.src = s.AllocScratch(64), s.AllocScratch(4)
	}
	switch l.n % 3 {
	case 1:
		return Syscall{No: SYSsendto, Args: [6]uint32{l.tx, l.buf, 48, loopbackPort}}, false, 0
	case 2:
		return Syscall{No: SYSrecvfrom, Args: [6]uint32{l.rx, l.buf, 64, l.src}}, false, 0
	default:
		return Syscall{No: SYSyield}, false, 0
	}
}

// TestLoopbackSocketAllocs gates a warm kernel-side loopback send and
// receive at zero allocations: the receiving socket pops its queue in
// place, and each send copies into a buffer of a datagram delivered
// before.
func TestLoopbackSocketAllocs(t *testing.T) {
	k := New()
	p := k.SpawnStepper("loopback", Cred{}, &loopback{})
	defer k.Kill(p, SIGKILL)
	round := func() {
		if err := k.dispatch(k.pickNext()); err != nil {
			t.Fatal(err)
		}
		if p.State == StateZombie || p.State == StateDead {
			t.Fatalf("loopback process exited with %d", p.ExitStatus)
		}
	}
	for i := 0; i < 3; i++ {
		round() // warm: sockets, scratch pages, the queue and a spare
	}
	before := k.SyscallCount
	const runs = 1000
	if n := testing.AllocsPerRun(runs, round); n != 0 {
		t.Fatalf("warm loopback send and receive: %v allocs, want 0", n)
	}
	// A clock tick can end a run early and move a syscall to the next.
	if got := k.SyscallCount - before; got < 3*runs {
		t.Fatalf("syscalls = %d, want at least %d (send, receive and yield per run)", got, 3*runs)
	}
}

// TestSyscallTableENOSYS: the handler table is indexed by number, and a
// number inside it with no handler, or past its end, is ENOSYS from
// both the native and the SM32 trap path.
func TestSyscallTableENOSYS(t *testing.T) {
	for _, no := range []uint32{0, 3, SYSyield - 1, SYSyield + 1, 1 << 31, ^uint32(0)} {
		k := New()
		var errno int
		k.SpawnStepper("native", Cred{}, stepFunc(func(_ *Sys, _ uint32, e int) (Syscall, bool, int) {
			if errno = e; errno != 0 {
				return Syscall{}, true, 0
			}
			return Syscall{No: no}, false, 0
		}))
		p, err := k.Spawn("sm32", Cred{}, buildProg(t, fmt.Sprintf(`
.text
.global _start
_start:
	TRAP %d
	PUSHRV
	TRAP 1
`, no)))
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Run(0); err != nil && !errors.Is(err, ErrDeadlock) {
			t.Fatal(err)
		}
		if errno != ENOSYS || p.ExitStatus != -ENOSYS {
			t.Errorf("syscall %d: native errno %d, SM32 exit %d; want ENOSYS and -%d", no, errno, p.ExitStatus, ENOSYS)
		}
	}
}
