package cpu

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/vm"
)

// harness assembles a machine with text at 0x1000 and a stack at
// 0x7000-0x8000 (SP starts at 0x8000).
func harness(t testing.TB, code []byte) (*Machine, *Context) {
	t.Helper()
	s := vm.NewSpace(mem.NewPhys(0), clock.New())
	if _, err := s.Map(0x1000, 0x1000, vm.ProtRX, "text"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(0x7000, 0x1000, vm.ProtRW, "stack"); err != nil {
		t.Fatal(err)
	}
	// The loader writes text via a kernel-side path; emulate by mapping
	// writable first is unnecessary — write through a scratch entry.
	writeText(t, s, 0x1000, code)
	m := &Machine{Space: s}
	return m, &Context{PC: 0x1000, SP: 0x8000, FP: 0x8000}
}

// writeText pokes code into a read-exec mapping the way the kernel
// loader does: by writing to the underlying page via a temporary
// protection upgrade.
func writeText(t testing.TB, s *vm.Space, addr uint32, code []byte) {
	t.Helper()
	e := s.FindEntry(addr)
	if e == nil {
		t.Fatalf("no entry at %#x", addr)
	}
	saved := e.Prot
	e.Prot |= vm.ProtWrite
	if err := s.WriteBytes(addr, code); err != nil {
		t.Fatal(err)
	}
	e.Prot = saved
}

func run(t *testing.T, m *Machine, ctx *Context) *Stop {
	t.Helper()
	stop, err := m.Run(ctx, 100000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return stop
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		op   byte
		a, b uint32
		want uint32
	}{
		{ADD, 2, 3, 5},
		{SUB, 10, 4, 6},
		{MUL, 6, 7, 42},
		{DIV, 42, 5, 8},
		{DIV, uint32(0xFFFFFFF8) /* -8 */, 2, uint32(0xFFFFFFFC)}, // signed
		{MOD, 42, 5, 2},
		{AND, 0xF0F0, 0xFF00, 0xF000},
		{OR, 0xF0F0, 0x0F0F, 0xFFFF},
		{XOR, 0xFF, 0x0F, 0xF0},
		{SHL, 1, 4, 16},
		{SHR, 256, 4, 16},
		{EQ, 5, 5, 1},
		{EQ, 5, 6, 0},
		{NE, 5, 6, 1},
		{LT, uint32(0xFFFFFFFF) /* -1 */, 0, 1}, // signed
		{LTU, 0xFFFFFFFF, 0, 0},                 // unsigned
		{GE, 7, 7, 1},
		{GEU, 0xFFFFFFFF, 1, 1},
		{GT, 8, 7, 1},
		{LE, 7, 8, 1},
	}
	for _, c := range cases {
		var code []byte
		code = EmitImm(code, PUSHI, c.a)
		code = EmitImm(code, PUSHI, c.b)
		code = Emit(code, c.op)
		code = Emit(code, HALT)
		m, ctx := harness(t, code)
		run(t, m, ctx)
		got, err := m.Peek(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s(%#x,%#x) = %#x, want %#x", OpName(c.op), c.a, c.b, got, c.want)
		}
	}
}

func TestDivisionByZeroFaults(t *testing.T) {
	var code []byte
	code = EmitImm(code, PUSHI, 1)
	code = EmitImm(code, PUSHI, 0)
	code = Emit(code, DIV)
	m, ctx := harness(t, code)
	_, err := m.Run(ctx, 100)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("got %v, want Fault", err)
	}
	if !strings.Contains(f.Error(), "division by zero") {
		t.Fatalf("fault = %v", f)
	}
}

func TestStackOps(t *testing.T) {
	var code []byte
	code = EmitImm(code, PUSHI, 1)
	code = EmitImm(code, PUSHI, 2)
	code = Emit(code, SWAP) // stack: 2 1 (1 on top)
	code = Emit(code, OVER) // stack: 2 1 2
	code = Emit(code, DUP)  // stack: 2 1 2 2
	code = Emit(code, HALT)
	m, ctx := harness(t, code)
	run(t, m, ctx)
	want := []uint32{2, 2, 1, 2} // top first
	for i, w := range want {
		v, err := m.Peek(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if v != w {
			t.Errorf("stack[%d] = %d, want %d", i, v, w)
		}
	}
}

func TestCallRetAndFrames(t *testing.T) {
	// main: PUSHI 41; CALL incr; ADDSP 4; PUSHRV -> stack; HALT
	// incr: ENTER 0; LOADFP 8; PUSHI 1; ADD; SETRV; LEAVE; RET
	const textBase = 0x1000
	var main, incr []byte
	// Layout: main first, incr after. Compute incr address after
	// emitting main with a placeholder, then re-emit.
	emit := func(incrAddr uint32) ([]byte, []byte) {
		var mn, ic []byte
		mn = EmitImm(mn, PUSHI, 41)
		mn = EmitImm(mn, CALL, incrAddr)
		mn = EmitImm(mn, ADDSP, 4)
		mn = Emit(mn, PUSHRV)
		mn = Emit(mn, HALT)
		ic = EmitImm(ic, ENTER, 0)
		ic = EmitImm(ic, LOADFP, 8)
		ic = EmitImm(ic, PUSHI, 1)
		ic = Emit(ic, ADD)
		ic = Emit(ic, SETRV)
		ic = Emit(ic, LEAVE)
		ic = Emit(ic, RET)
		return mn, ic
	}
	main, incr = emit(0)
	main, incr = emit(textBase + uint32(len(main)))
	m, ctx := harness(t, append(main, incr...))
	run(t, m, ctx)
	got, err := m.Peek(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("incr(41) = %d, want 42", got)
	}
	if ctx.SP != 0x8000-4 {
		t.Fatalf("SP = %#x, want %#x (balanced except result)", ctx.SP, 0x8000-4)
	}
	if ctx.FP != 0x8000 {
		t.Fatalf("FP = %#x, want restored %#x", ctx.FP, 0x8000)
	}
}

func TestIndirectCall(t *testing.T) {
	const textBase = 0x1000
	// target: PUSHI 99 -> RV via SETRV; RET
	var mn []byte
	mn = EmitImm(mn, PUSHI, 0) // placeholder for target addr
	mn = Emit(mn, CALLI)
	mn = Emit(mn, PUSHRV)
	mn = Emit(mn, HALT)
	target := textBase + uint32(len(mn))
	mn = mn[:0]
	mn = EmitImm(mn, PUSHI, target)
	mn = Emit(mn, CALLI)
	mn = Emit(mn, PUSHRV)
	mn = Emit(mn, HALT)
	var tg []byte
	tg = EmitImm(tg, PUSHI, 99)
	tg = Emit(tg, SETRV)
	tg = Emit(tg, RET)
	m, ctx := harness(t, append(mn, tg...))
	run(t, m, ctx)
	got, _ := m.Peek(ctx, 0)
	if got != 99 {
		t.Fatalf("indirect call result = %d, want 99", got)
	}
}

func TestBranches(t *testing.T) {
	// Loop: sum 1..10 with JNZ.
	const textBase = 0x1000
	// locals via stack cells at fixed addresses in the data page:
	// use 0x7000 (mapped stack page low end) for i and sum.
	iAddr, sumAddr := uint32(0x7000), uint32(0x7004)
	build := func(loop uint32) []byte {
		var c []byte
		c = EmitImm(c, PUSHI, 10)
		c = EmitImm(c, PUSHI, iAddr)
		c = Emit(c, STORE)
		c = EmitImm(c, PUSHI, 0)
		c = EmitImm(c, PUSHI, sumAddr)
		c = Emit(c, STORE)
		// loop:
		//   sum += i; i--; if i != 0 goto loop
		lp := uint32(len(c))
		_ = lp
		c = EmitImm(c, PUSHI, sumAddr)
		c = Emit(c, LOAD)
		c = EmitImm(c, PUSHI, iAddr)
		c = Emit(c, LOAD)
		c = Emit(c, ADD)
		c = EmitImm(c, PUSHI, sumAddr)
		c = Emit(c, STORE)
		c = EmitImm(c, PUSHI, iAddr)
		c = Emit(c, LOAD)
		c = EmitImm(c, PUSHI, 1)
		c = Emit(c, SUB)
		c = Emit(c, DUP)
		c = EmitImm(c, PUSHI, iAddr)
		c = Emit(c, STORE)
		c = EmitImm(c, JNZ, loop)
		c = Emit(c, HALT)
		return c
	}
	// Loop target is after the two initializations: 2*(5+5+1) = 22 bytes.
	code := build(textBase + 22)
	m, ctx := harness(t, code)
	run(t, m, ctx)
	sum, err := m.Space.Read32(sumAddr)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 55 {
		t.Fatalf("sum = %d, want 55", sum)
	}
}

func TestTrapStopsWithNumber(t *testing.T) {
	var code []byte
	code = EmitImm(code, PUSHI, 7)
	code = EmitImm(code, TRAP, 301)
	code = Emit(code, HALT)
	m, ctx := harness(t, code)
	stop, err := m.Run(ctx, 100)
	if err != nil {
		t.Fatal(err)
	}
	if stop.Kind != StopTrap || stop.TrapNo != 301 {
		t.Fatalf("stop = %+v, want trap 301", stop)
	}
	// Arg still on the stack for the kernel to read.
	arg, _ := m.Peek(ctx, 0)
	if arg != 7 {
		t.Fatalf("trap arg = %d, want 7", arg)
	}
	// Resuming continues after the trap.
	stop = run(t, m, ctx)
	if stop.Kind != StopHalt {
		t.Fatalf("resume stop = %+v, want halt", stop)
	}
}

func TestIllegalOpcodeFaults(t *testing.T) {
	m, ctx := harness(t, []byte{0xEE})
	_, err := m.Run(ctx, 10)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("got %v, want Fault", err)
	}
}

func TestExecuteUnmappedFaults(t *testing.T) {
	m, ctx := harness(t, []byte{NOP})
	ctx.PC = 0x5000 // unmapped
	_, err := m.Run(ctx, 10)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("got %v, want Fault", err)
	}
	if !errors.Is(err, vm.ErrNoMapping) {
		t.Fatalf("fault cause = %v, want ErrNoMapping", err)
	}
}

func TestExecuteDataFaults(t *testing.T) {
	// Executing from the RW stack page must be a protection fault: SM32
	// pages are not executable unless mapped ProtExec.
	m, ctx := harness(t, []byte{NOP})
	ctx.PC = 0x7000
	_, err := m.Run(ctx, 10)
	if !errors.Is(err, vm.ErrProtection) {
		t.Fatalf("got %v, want ErrProtection", err)
	}
}

func TestStackSwitchViaSetSP(t *testing.T) {
	// The handle-side receive stub switches stacks with GETSP/SETSP;
	// verify the primitive round-trips.
	var code []byte
	code = EmitImm(code, PUSHI, 0x7800) // new SP
	code = Emit(code, SETSP)
	code = EmitImm(code, PUSHI, 0xAB)
	code = Emit(code, HALT)
	m, ctx := harness(t, code)
	run(t, m, ctx)
	if ctx.SP != 0x7800-4 {
		t.Fatalf("SP = %#x, want %#x", ctx.SP, 0x7800-4)
	}
	v, _ := m.Space.Read32(0x7800 - 4)
	if v != 0xAB {
		t.Fatalf("pushed on new stack = %#x, want 0xAB", v)
	}
}

func TestCyclesCharged(t *testing.T) {
	var total uint64
	var code []byte
	code = EmitImm(code, PUSHI, 1)
	code = EmitImm(code, PUSHI, 2)
	code = Emit(code, MUL)
	code = Emit(code, HALT)
	m, ctx := harness(t, code)
	m.Cycles = func(c uint64) { total += c }
	run(t, m, ctx)
	// 2 pushes (costMem each) + MUL (costMulDiv) + HALT (costBase).
	want := uint64(2*costMem + costMulDiv + costBase)
	if total != want {
		t.Fatalf("cycles = %d, want %d", total, want)
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	var code []byte
	code = EmitImm(code, PUSHI, 0xDEAD)
	code = Emit(code, ADD)
	code = EmitImm(code, CALL, 0x1234)
	code = Emit(code, RET)
	d := Disassemble(code, 0x1000)
	for _, want := range []string{"PUSHI", "ADD", "CALL 0x1234", "RET", "00001000"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
}

func TestOpNameRoundTrip(t *testing.T) {
	for op := byte(0); op < byte(opCount); op++ {
		name := OpName(op)
		got, ok := OpByName(name)
		if !ok || got != op {
			t.Errorf("OpByName(OpName(%d)) = %d,%v", op, got, ok)
		}
	}
	if _, ok := OpByName("BOGUS"); ok {
		t.Error("OpByName accepted BOGUS")
	}
}

func TestPropertyPushPop(t *testing.T) {
	m, ctx := harness(t, []byte{NOP})
	prop := func(vals []uint32) bool {
		if len(vals) > 200 {
			vals = vals[:200]
		}
		start := ctx.SP
		for _, v := range vals {
			if err := m.Push(ctx, v); err != nil {
				return false
			}
		}
		for i := len(vals) - 1; i >= 0; i-- {
			v, err := m.Pop(ctx)
			if err != nil || v != vals[i] {
				return false
			}
		}
		return ctx.SP == start
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAddCommutes(t *testing.T) {
	prop := func(a, b uint32) bool {
		res := func(x, y uint32) uint32 {
			var code []byte
			code = EmitImm(code, PUSHI, x)
			code = EmitImm(code, PUSHI, y)
			code = Emit(code, ADD)
			code = Emit(code, HALT)
			m, ctx := harness(t, code)
			if _, err := m.Run(ctx, 100); err != nil {
				t.Fatal(err)
			}
			v, _ := m.Peek(ctx, 0)
			return v
		}
		return res(a, b) == res(b, a) && res(a, b) == a+b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
