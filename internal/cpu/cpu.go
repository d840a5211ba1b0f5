// Package cpu implements SM32, the simulated 32-bit stack machine used
// as the reproduction's substitute for the paper's Pentium III. SM32 is
// deliberately minimal but real: instructions are byte-encoded in
// simulated memory, fetched through the MMU with execute permission, and
// include indirect calls and raw stack-pointer manipulation — the
// "arbitrary formulation of addresses and jumps" (paper section 3.1)
// that makes it impossible to trust client-resident code and forces the
// SecModule design of keeping protected text in a separate handle
// process.
//
// Calling convention (cdecl, matching the paper's Figure 3 stack
// diagrams): the caller pushes arguments right to left, CALL pushes the
// return address, the callee's prologue is ENTER n (push FP, FP := SP,
// reserve n bytes of locals), so inside a function arg1 lives at FP+8,
// arg2 at FP+12, and so on. Return values travel in the RV register
// (SETRV / PUSHRV). The caller pops its own arguments.
//
// Syscall convention: arguments are pushed right to left, then TRAP n.
// The kernel reads arguments at SP, SP+4, ... and delivers the result by
// setting RV. The stack is unchanged by TRAP itself.
package cpu

import (
	"fmt"

	"repro/internal/vm"
)

// Opcodes. The encoding is one opcode byte optionally followed by a
// 4-byte little-endian operand (see HasOperand).
const (
	NOP byte = iota
	HALT
	PUSHI // push imm32
	DUP
	DROP
	SWAP
	OVER
	LOAD    // pop addr; push mem32[addr]
	STORE   // pop addr; pop val; mem32[addr] = val
	LOADB   // pop addr; push zero-extended mem8[addr]
	STOREB  // pop addr; pop val; mem8[addr] = low byte of val
	LOADFP  // push mem32[FP+imm]  (imm signed)
	STOREFP // pop val; mem32[FP+imm] = val
	ADD
	SUB
	MUL
	DIV
	MOD
	AND
	OR
	XOR
	SHL
	SHR
	NOT
	NEG
	EQ
	NE
	LT // signed comparisons push 1 or 0
	LE
	GT
	GE
	LTU // unsigned
	GEU
	JMP  // absolute imm32
	JZ   // pop; branch if zero
	JNZ  // pop; branch if nonzero
	CALL // push return addr; jump imm32
	CALLI
	RET
	ENTER // push FP; FP := SP; SP -= imm32
	LEAVE // SP := FP; pop FP
	TRAP  // syscall imm32
	GETSP // push SP
	SETSP // pop -> SP
	GETFP // push FP
	SETFP // pop -> FP
	ADDSP // SP += imm32 (signed)
	SETRV // pop -> RV
	PUSHRV
	opCount
)

var names = [opCount]string{
	NOP: "NOP", HALT: "HALT", PUSHI: "PUSHI", DUP: "DUP", DROP: "DROP",
	SWAP: "SWAP", OVER: "OVER", LOAD: "LOAD", STORE: "STORE", LOADB: "LOADB",
	STOREB: "STOREB", LOADFP: "LOADFP", STOREFP: "STOREFP", ADD: "ADD",
	SUB: "SUB", MUL: "MUL", DIV: "DIV", MOD: "MOD", AND: "AND", OR: "OR",
	XOR: "XOR", SHL: "SHL", SHR: "SHR", NOT: "NOT", NEG: "NEG", EQ: "EQ",
	NE: "NE", LT: "LT", LE: "LE", GT: "GT", GE: "GE", LTU: "LTU", GEU: "GEU",
	JMP: "JMP", JZ: "JZ", JNZ: "JNZ", CALL: "CALL", CALLI: "CALLI",
	RET: "RET", ENTER: "ENTER", LEAVE: "LEAVE", TRAP: "TRAP",
	GETSP: "GETSP", SETSP: "SETSP", GETFP: "GETFP", SETFP: "SETFP",
	ADDSP: "ADDSP", SETRV: "SETRV", PUSHRV: "PUSHRV",
}

// OpName returns the mnemonic for op, or "OP?xx" if unknown.
func OpName(op byte) string {
	if int(op) < len(names) && names[op] != "" {
		return names[op]
	}
	return fmt.Sprintf("OP?%02x", op)
}

// OpByName resolves a mnemonic (used by the assembler). ok is false for
// unknown mnemonics.
func OpByName(name string) (byte, bool) {
	for op, n := range names {
		if n == name {
			return byte(op), true
		}
	}
	return 0, false
}

// HasOperand reports whether op carries a 4-byte immediate.
func HasOperand(op byte) bool {
	switch op {
	case PUSHI, LOADFP, STOREFP, JMP, JZ, JNZ, CALL, ENTER, TRAP, ADDSP:
		return true
	}
	return false
}

// OperandIsAddress reports whether the operand of op names a code or
// data address (and therefore needs a relocation when it references a
// symbol). ENTER/ADDSP/TRAP/LOADFP/STOREFP operands are plain numbers.
func OperandIsAddress(op byte) bool {
	switch op {
	case PUSHI, JMP, JZ, JNZ, CALL:
		return true
	}
	return false
}

// InstrLen returns the encoded length of the instruction starting with op.
func InstrLen(op byte) uint32 {
	if HasOperand(op) {
		return 5
	}
	return 1
}

// Context is the register file of one SM32 execution context.
type Context struct {
	PC uint32
	SP uint32
	FP uint32
	RV uint32 // return-value register
}

// StopKind classifies why Step returned a Stop.
type StopKind int

// Stop kinds.
const (
	// StopNone: an ordinary instruction; execution continues.
	StopNone StopKind = iota
	// StopTrap: the instruction was TRAP n; the kernel must service
	// syscall n and resume (or switch) the context.
	StopTrap
	// StopHalt: HALT executed.
	StopHalt
)

// Stop describes a voluntary exit from Step.
type Stop struct {
	Kind   StopKind
	TrapNo uint32
}

// Fault wraps a memory or decode error with the faulting PC, letting the
// kernel turn it into a fatal signal with an accurate report.
type Fault struct {
	PC  uint32
	Err error
}

func (f *Fault) Error() string { return fmt.Sprintf("cpu: fault at PC %#x: %v", f.PC, f.Err) }

func (f *Fault) Unwrap() error { return f.Err }

// Per-instruction cycle costs, PIII-flavoured: single-cycle ALU,
// multi-cycle multiply/divide, a small penalty for memory traffic and
// taken branches.
const (
	costBase   = 1
	costMem    = 3
	costMulDiv = 12
	costBranch = 2
)

// Machine executes SM32 instructions against an address space. The
// cycle charge of each executed instruction is accumulated by the
// CycleFn (typically clock.Clock.Advance).
type Machine struct {
	Space  *vm.Space
	Cycles func(uint64)
}

func (m *Machine) charge(c uint64) {
	if m.Cycles != nil {
		m.Cycles(c)
	}
}

// Push pushes v onto the context's stack.
func (m *Machine) Push(ctx *Context, v uint32) error {
	ctx.SP -= 4
	return m.Space.Write32(ctx.SP, v)
}

// Pop pops the top of stack.
func (m *Machine) Pop(ctx *Context) (uint32, error) {
	v, err := m.Space.Read32(ctx.SP)
	if err != nil {
		return 0, err
	}
	ctx.SP += 4
	return v, nil
}

// Peek reads the stack word at SP + 4*idx without popping.
func (m *Machine) Peek(ctx *Context, idx int) (uint32, error) {
	return m.Space.Read32(ctx.SP + uint32(4*idx))
}

// Step executes a single instruction. It returns a StopNone Stop for an
// ordinary instruction, a StopTrap or StopHalt Stop for TRAP/HALT, or an
// error (wrapped in *Fault) for memory violations, decode failures and
// division by zero.
func (m *Machine) Step(ctx *Context) (Stop, error) {
	pc := ctx.PC
	op, err := m.Space.FetchExec(pc)
	if err != nil {
		return Stop{}, &Fault{PC: pc, Err: err}
	}
	if op >= byte(opCount) {
		return Stop{}, &Fault{PC: pc, Err: fmt.Errorf("illegal instruction %#02x", op)}
	}
	var imm uint32
	if HasOperand(op) {
		imm, err = m.Space.FetchExec32(pc + 1)
		if err != nil {
			return Stop{}, &Fault{PC: pc, Err: err}
		}
	}
	next := pc + InstrLen(op)
	cost := uint64(costBase)

	fail := func(e error) (Stop, error) { return Stop{}, &Fault{PC: pc, Err: e} }

	switch op {
	case NOP:
	case HALT:
		ctx.PC = next
		m.charge(cost)
		return Stop{Kind: StopHalt}, nil
	case TRAP:
		ctx.PC = next
		m.charge(cost)
		return Stop{Kind: StopTrap, TrapNo: imm}, nil

	case PUSHI:
		cost = costMem
		if err := m.Push(ctx, imm); err != nil {
			return fail(err)
		}
	case DUP:
		cost = costMem
		v, err := m.Peek(ctx, 0)
		if err != nil {
			return fail(err)
		}
		if err := m.Push(ctx, v); err != nil {
			return fail(err)
		}
	case DROP:
		ctx.SP += 4
	case SWAP:
		cost = costMem
		a, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		b, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		if err := m.Push(ctx, a); err != nil {
			return fail(err)
		}
		if err := m.Push(ctx, b); err != nil {
			return fail(err)
		}
	case OVER:
		cost = costMem
		v, err := m.Peek(ctx, 1)
		if err != nil {
			return fail(err)
		}
		if err := m.Push(ctx, v); err != nil {
			return fail(err)
		}

	case LOAD:
		cost = costMem
		addr, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		v, err := m.Space.Read32(addr)
		if err != nil {
			return fail(err)
		}
		if err := m.Push(ctx, v); err != nil {
			return fail(err)
		}
	case STORE:
		cost = costMem
		addr, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		v, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		if err := m.Space.Write32(addr, v); err != nil {
			return fail(err)
		}
	case LOADB:
		cost = costMem
		addr, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		b, err := m.Space.Read8(addr)
		if err != nil {
			return fail(err)
		}
		if err := m.Push(ctx, uint32(b)); err != nil {
			return fail(err)
		}
	case STOREB:
		cost = costMem
		addr, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		v, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		if err := m.Space.Write8(addr, byte(v)); err != nil {
			return fail(err)
		}
	case LOADFP:
		cost = costMem
		v, err := m.Space.Read32(ctx.FP + imm)
		if err != nil {
			return fail(err)
		}
		if err := m.Push(ctx, v); err != nil {
			return fail(err)
		}
	case STOREFP:
		cost = costMem
		v, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		if err := m.Space.Write32(ctx.FP+imm, v); err != nil {
			return fail(err)
		}

	case ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SHL, SHR,
		EQ, NE, LT, LE, GT, GE, LTU, GEU:
		cost = costMem
		if op == MUL || op == DIV || op == MOD {
			cost = costMulDiv
		}
		b, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		a, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		var r uint32
		switch op {
		case ADD:
			r = a + b
		case SUB:
			r = a - b
		case MUL:
			r = a * b
		case DIV:
			if b == 0 {
				return fail(fmt.Errorf("division by zero"))
			}
			r = uint32(int32(a) / int32(b))
		case MOD:
			if b == 0 {
				return fail(fmt.Errorf("division by zero"))
			}
			r = uint32(int32(a) % int32(b))
		case AND:
			r = a & b
		case OR:
			r = a | b
		case XOR:
			r = a ^ b
		case SHL:
			r = a << (b & 31)
		case SHR:
			r = a >> (b & 31)
		case EQ:
			r = boolWord(a == b)
		case NE:
			r = boolWord(a != b)
		case LT:
			r = boolWord(int32(a) < int32(b))
		case LE:
			r = boolWord(int32(a) <= int32(b))
		case GT:
			r = boolWord(int32(a) > int32(b))
		case GE:
			r = boolWord(int32(a) >= int32(b))
		case LTU:
			r = boolWord(a < b)
		case GEU:
			r = boolWord(a >= b)
		}
		if err := m.Push(ctx, r); err != nil {
			return fail(err)
		}
	case NOT:
		cost = costMem
		v, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		if err := m.Push(ctx, boolWord(v == 0)); err != nil {
			return fail(err)
		}
	case NEG:
		cost = costMem
		v, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		if err := m.Push(ctx, -v); err != nil {
			return fail(err)
		}

	case JMP:
		cost = costBranch
		next = imm
	case JZ:
		cost = costBranch
		v, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		if v == 0 {
			next = imm
		}
	case JNZ:
		cost = costBranch
		v, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		if v != 0 {
			next = imm
		}
	case CALL:
		cost = costBranch + costMem
		if err := m.Push(ctx, next); err != nil {
			return fail(err)
		}
		next = imm
	case CALLI:
		cost = costBranch + costMem
		target, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		if err := m.Push(ctx, next); err != nil {
			return fail(err)
		}
		next = target
	case RET:
		cost = costBranch + costMem
		ra, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		next = ra

	case ENTER:
		cost = costMem
		if err := m.Push(ctx, ctx.FP); err != nil {
			return fail(err)
		}
		ctx.FP = ctx.SP
		ctx.SP -= imm
	case LEAVE:
		cost = costMem
		ctx.SP = ctx.FP
		fp, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		ctx.FP = fp

	case GETSP:
		cost = costMem
		if err := m.Push(ctx, ctx.SP); err != nil {
			return fail(err)
		}
	case SETSP:
		v, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		ctx.SP = v
	case GETFP:
		cost = costMem
		if err := m.Push(ctx, ctx.FP); err != nil {
			return fail(err)
		}
	case SETFP:
		v, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		ctx.FP = v
	case ADDSP:
		ctx.SP += imm
	case SETRV:
		v, err := m.Pop(ctx)
		if err != nil {
			return fail(err)
		}
		ctx.RV = v
	case PUSHRV:
		cost = costMem
		if err := m.Push(ctx, ctx.RV); err != nil {
			return fail(err)
		}
	}

	ctx.PC = next
	m.charge(cost)
	return Stop{}, nil
}

func boolWord(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Run steps the context until it traps, halts, faults, or maxSteps
// instructions have executed (maxSteps 0 = unlimited). Used by unit
// tests and by the kernel's non-preemptive fast path.
func (m *Machine) Run(ctx *Context, maxSteps int) (*Stop, error) {
	for i := 0; maxSteps == 0 || i < maxSteps; i++ {
		stop, err := m.Step(ctx)
		if err != nil {
			return nil, err
		}
		if stop.Kind != StopNone {
			return &stop, nil
		}
	}
	return nil, fmt.Errorf("cpu: step budget exhausted at PC %#x", ctx.PC)
}
