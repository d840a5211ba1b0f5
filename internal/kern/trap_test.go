package kern

import "testing"

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
