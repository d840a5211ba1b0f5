package core

import (
	"testing"

	"repro/internal/kern"
)

// testMarkNo is a test-only syscall the allocation ratchet's client
// traps once per loop iteration.
const testMarkNo = 399

// TestSMODCallAllocs ratchets a warm smod_call of test-incr: the trap,
// the dispatch to the handle and the return must allocate nothing but
// the message queue payload copies (the kernel's copy of the dispatch
// record, the handle's msgsnd copyin of the result, and the handle's
// msgrcv copyout buffer).
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
	if n := testing.AllocsPerRun(runs, call); n > 3 {
		t.Fatalf("warm smod_call: %v allocs, want <= 3", n)
	}
	if got := sm.Calls - before; got != runs+1 {
		t.Fatalf("smod calls = %d, want %d (one per run)", got, runs+1)
	}
}
