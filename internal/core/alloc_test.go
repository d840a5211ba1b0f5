package core

import (
	"runtime"
	"testing"

	"repro/internal/kern"
)

// testMarkNo is a test-only syscall the allocation ratchet's client
// traps once per loop iteration.
const testMarkNo = 399

// TestSMODCallAllocs ratchets a warm smod_call of test-incr: the trap,
// the dispatch to the handle and the return allocate nothing. The
// processes sleep on wait queues embedded in their session and message
// queues, and each message queue refills the buffers of messages it
// has delivered.
func TestSMODCallAllocs(t *testing.T) {
	k, sm := newSMod(t)
	registerLibc(t, sm, nil)
	var marks, want uint64
	k.RegisterSyscall(testMarkNo, "test_mark", func(*kern.Kernel, *kern.Proc, []uint32) kern.Sysret {
		marks++
		return kern.Sysret{}
	})
	p, err := k.Spawn("client", clientCred(), buildClient(t, `
.text
.global main
main:
	ENTER 0
loop:
	TRAP 399
	PUSHI 41
	CALL incr
	ADDSP 4
	JMP loop
`))
	if err != nil {
		t.Fatal(err)
	}
	defer k.Kill(p, kern.SIGKILL)
	reached := func() bool { return marks >= want }
	// One run: the handle serves the pending call, and the client
	// returns from it, traps the mark and blocks in the next call.
	call := func() {
		want = marks + 1
		if err := k.RunUntil(reached, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		call() // warm: handshake, stack and heap pages, queue buffers
	}
	before := sm.Calls
	const runs = 1000
	if n := testing.AllocsPerRun(runs, call); n > 0 {
		t.Fatalf("warm smod_call: %v allocs, want 0", n)
	}
	if got := sm.Calls - before; got != runs+1 {
		t.Fatalf("smod calls = %d, want %d (one per run)", got, runs+1)
	}
}

// nativeSession runs one native client session on k to the client's
// exit: spawn, AttachNative to libc (find, policy check, handle fork,
// secret segment), one incr call, exit and teardown.
func nativeSession(tb testing.TB, k *kern.Kernel, fidIncr, arg uint32) {
	var v uint32
	client := k.SpawnNative("nc", clientCred(), func(s *kern.Sys) int {
		c, err := AttachNative(s, "libc", 1, "")
		if err != nil {
			return 1
		}
		v = c.MustCall(fidIncr, arg)
		return 0
	})
	if err := k.RunUntil(func() bool {
		return client.State == kern.StateZombie || client.State == kern.StateDead
	}, 200_000_000); err != nil {
		tb.Fatal(err)
	}
	if client.ExitStatus != 0 || v != arg+1 {
		tb.Fatalf("session: exit=%d v=%d, want 0 and %d", client.ExitStatus, v, arg+1)
	}
}

// TestNativeSessionAllocs ratchets the Go heap a warm native session
// allocates. The kernel reuses the frames each session frees, and the
// map entries, anons, amaps, message queues and policy memory around
// them, so a session allocates about 2.7 KB of bookkeeping (the
// SpawnNative goroutine and its channels, two address spaces and
// processes, the session) but no fresh 4 KiB frame, and it gives every
// frame back.
func TestNativeSessionAllocs(t *testing.T) {
	k, sm := newSMod(t)
	registerLibc(t, sm, nil)
	fidIncr := uint32(mustFuncID(t, sm, "incr"))
	frames0 := k.Phys.InUse()
	for i := 0; i < 5; i++ {
		nativeSession(t, k, fidIncr, uint32(i)) // warm: frames, queues, tables
	}
	const sessions = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sessions; i++ {
		nativeSession(t, k, fidIncr, uint32(i))
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / sessions; per >= 3<<10 {
		t.Fatalf("warm native session: %d bytes of heap, want < %d", per, 3<<10)
	}
	if got := k.Phys.InUse(); got != frames0 {
		t.Fatalf("%d frames in use after %d sessions, want %d", got, sessions+5, frames0)
	}
}

// BenchmarkNativeSession times a warm native session end to end.
func BenchmarkNativeSession(b *testing.B) {
	k, sm := newSMod(b)
	registerLibc(b, sm, nil)
	fidIncr := uint32(mustFuncID(b, sm, "incr"))
	nativeSession(b, k, fidIncr, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nativeSession(b, k, fidIncr, uint32(i))
	}
}
