package kern

import (
	"fmt"
	"testing"
)

// The syscall trap path must not allocate on success: a trap that
// builds an error for every argument word past the stack top, or
// heap-allocates its argument buffer or stop record, pays a host-time
// tax on every simulated call that the modelled kernel never paid.

// getpidLoop spawns an SM32 process that calls getpid forever and
// returns a function that runs exactly one of its traps: one slice of
// two instructions, TRAP then JMP.
func getpidLoop(tb testing.TB) (*Kernel, func()) {
	tb.Helper()
	k := New()
	if _, err := k.Spawn("getpid-loop", Cred{UID: 1}, buildProg(tb, `
.text
.global _start
_start:
	TRAP 20
	JMP _start
`)); err != nil {
		tb.Fatal(err)
	}
	k.MaxStepsPerSlice = 2
	trap := func() {
		if err := k.dispatch(k.pickNext()); err != nil {
			tb.Fatal(err)
		}
	}
	trap() // warm: fault the stack page in
	return k, trap
}

// TestTrapGetpidAllocs ratchets the SM32 trap path at zero allocations.
func TestTrapGetpidAllocs(t *testing.T) {
	k, trap := getpidLoop(t)
	before := k.SyscallCount
	const runs = 1000
	if n := testing.AllocsPerRun(runs, trap); n != 0 {
		t.Fatalf("SM32 getpid trap: %v allocs, want 0", n)
	}
	if got := k.SyscallCount - before; got != runs+1 {
		t.Fatalf("syscalls = %d, want %d (one per run)", got, runs+1)
	}
}

// TestNativeGetpidAllocs ratchets the native syscall path at zero
// allocations: each run is one dispatch of a native process calling
// getpid then yield.
func TestNativeGetpidAllocs(t *testing.T) {
	k := New()
	p := k.SpawnNative("getpid-loop", Cred{UID: 1}, func(s *Sys) int {
		for {
			s.Getpid()
			s.Yield()
		}
	})
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
		t.Fatalf("native getpid syscall: %v allocs, want 0", n)
	}
	if got := k.SyscallCount - before; got != 2*(runs+1) {
		t.Fatalf("syscalls = %d, want %d (getpid and yield per run)", got, 2*(runs+1))
	}
}

// BenchmarkTrapGetpid times one warm SM32 getpid trap, with the
// dispatch that runs it.
func BenchmarkTrapGetpid(b *testing.B) {
	_, trap := getpidLoop(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trap()
	}
}

// TestShortCallerReadsZeros: a caller that pushes fewer argument words
// than its syscall declares still hands the handler all of them, the
// missing ones, past the stack top, read as zero; the kernel counts the
// trap in ArgFaults.
func TestShortCallerReadsZeros(t *testing.T) {
	const no = 400
	k := New()
	var got []uint32
	k.RegisterSyscall(no, "test_args", 3, func(_ *Kernel, _ *Proc, args []uint32) Sysret {
		got = append([]uint32(nil), args...)
		return ok(0)
	})
	if _, err := k.Spawn("short", Cred{}, buildProg(t, fmt.Sprintf(`
.text
.global _start
_start:
	PUSHI 7
	TRAP %d
	HALT
`, no))); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[7 0 0]" {
		t.Fatalf("handler got %v, want [7 0 0]", got)
	}
	if k.ArgFaults != 1 {
		t.Fatalf("ArgFaults = %d, want 1", k.ArgFaults)
	}
}

// TestHandlerSeesOnlyDeclaredArgs: a handler gets a slice of exactly its
// declared words, so reading past them panics instead of reading a
// stale or zero word.
func TestHandlerSeesOnlyDeclaredArgs(t *testing.T) {
	const no = 400
	k := New()
	k.RegisterSyscall(no, "test_overread", 1, func(_ *Kernel, _ *Proc, args []uint32) Sysret {
		return ok(args[1])
	})
	if _, err := k.Spawn("overread", Cred{}, buildProg(t, fmt.Sprintf(`
.text
.global _start
_start:
	PUSHI 2
	PUSHI 1
	TRAP %d
	HALT
`, no))); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a handler reading past its declared words did not panic")
		}
	}()
	k.Run(0)
}
