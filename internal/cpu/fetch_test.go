package cpu

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/vm"
)

// TestOperandStraddlesPage places a PUSHI so that its immediate crosses
// from the text page at 0x1000 into the page at 0x2000, or starts on
// it, and checks the three things that page can be: executable (the
// whole immediate executes), unmapped, or mapped without exec. A fault
// names the instruction's PC and the first byte of the second page.
func TestOperandStraddlesPage(t *testing.T) {
	const imm = 0x44332211
	for pc := uint32(0x1FFC); pc <= 0x1FFF; pc++ {
		prog := code(ins{PUSHI, imm}, ins{HALT, 0})
		for _, c := range []struct {
			name string
			prot vm.Prot // of the second page; 0 leaves it unmapped
			is   error
			text string
		}{
			{"exec", vm.ProtRX, nil, ""},
			{"unmapped", 0, vm.ErrNoMapping, "vm: no mapping: addr 0x2000 (exec)"},
			{"no exec", vm.ProtRW, vm.ErrProtection,
				"vm: protection violation: exec access to next page 0x2000 (prot rw-)"},
		} {
			t.Run(fmt.Sprintf("%#x/%s", pc, c.name), func(t *testing.T) {
				s := vm.NewSpace(mem.NewPhys(0), clock.New())
				for _, m := range []struct {
					start uint32
					prot  vm.Prot
					name  string
				}{{0x1000, vm.ProtRX, "text"}, {0x2000, c.prot, "next"}, {0x7000, vm.ProtRW, "stack"}} {
					if m.prot == 0 {
						continue
					}
					if _, err := s.Map(m.start, mem.PageSize, m.prot, m.name); err != nil {
						t.Fatal(err)
					}
				}
				split := 0x2000 - pc
				writeText(t, s, pc, prog[:split])
				if c.prot != 0 {
					writeText(t, s, 0x2000, prog[split:])
				}
				m := &Machine{Space: s}
				ctx := &Context{PC: pc, SP: 0x8000, FP: 0x8000}
				stop, err := m.Run(ctx, 10)
				if c.is == nil {
					if err != nil || stop.Kind != StopHalt {
						t.Fatalf("run = %v, %v; want halt", stop, err)
					}
					if v, _ := m.Pop(ctx); v != imm {
						t.Fatalf("pushed %#x, want %#x", v, uint32(imm))
					}
					return
				}
				var f *Fault
				if !errors.As(err, &f) || f.PC != pc || !errors.Is(err, c.is) {
					t.Fatalf("run error = %v, want a fault at PC %#x wrapping %v", err, pc, c.is)
				}
				if want := fmt.Sprintf("cpu: fault at PC %#x: %s", pc, c.text); err.Error() != want {
					t.Fatalf("error text = %q, want %q", err, want)
				}
			})
		}
	}
}

// stepLoop returns a machine running an endless SM32 loop that
// increments a frame local: LOADFP, PUSHI, ADD, STOREFP, PUSHI, JNZ.
func stepLoop(tb testing.TB) (*Machine, *Context) {
	tb.Helper()
	m, ctx := harness(tb, code(ins{ENTER, 4},
		ins{LOADFP, 0xFFFFFFFC}, ins{PUSHI, 1}, ins{ADD, 0}, ins{STOREFP, 0xFFFFFFFC},
		ins{PUSHI, 1}, ins{JNZ, 0x1005}))
	m.Clock = clock.New()
	return m, ctx
}

// BenchmarkStep times one warm instruction of stepLoop, charged on its
// own.
func BenchmarkStep(b *testing.B) {
	m, ctx := stepLoop(b)
	step := func() {
		if _, err := m.Step(ctx); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkExec times one warm instruction of stepLoop run by Exec, the
// kernel's loop: b.N instructions in runs that end at clock ticks.
func BenchmarkExec(b *testing.B) {
	m, ctx := stepLoop(b)
	if _, _, err := m.Exec(ctx, 100); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; {
		n, _, err := m.Exec(ctx, left)
		if err != nil {
			b.Fatal(err)
		}
		left -= n
	}
}

// TestNoWindowOutlivesAnEpochBump: a run-local translation does not
// outlive an epoch bump. Between two runs of stepLoop, whose every
// instruction touches its stack, the stack is unmapped; the next run, by
// Exec or by Step, must fault on it instead of using the page it last
// hit.
func TestNoWindowOutlivesAnEpochBump(t *testing.T) {
	for _, step := range []bool{false, true} {
		m, ctx := stepLoop(t)
		run := func() error {
			if step {
				_, err := m.Step(ctx)
				return err
			}
			_, _, err := m.Exec(ctx, 100)
			return err
		}
		for i := 0; i < 10; i++ {
			if err := run(); err != nil {
				t.Fatal(err)
			}
		}
		m.Space.Unmap(0x7000, 0x8000)
		if err := run(); !errors.Is(err, vm.ErrNoMapping) {
			t.Fatalf("step %v: after the stack is unmapped, run = %v; want a fault", step, err)
		}
	}
}

// TestExecAllocs: a warm Exec loop allocates nothing.
func TestExecAllocs(t *testing.T) {
	m, ctx := stepLoop(t)
	if _, _, err := m.Exec(ctx, 100); err != nil {
		t.Fatal(err)
	}
	run := func() {
		if n, _, err := m.Exec(ctx, 1000); err != nil || n != 1000 {
			t.Fatalf("Exec = %d, %v; want 1000 instructions", n, err)
		}
	}
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("warm Exec: %v allocs per 1000 instructions, want 0", n)
	}
}
