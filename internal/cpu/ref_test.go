package cpu

import (
	"fmt"

	"repro/internal/vm"
)

// RefMachine is the interpreter as it was before Exec: every access
// takes vm's full path and every instruction is charged on its own.
// FuzzExec checks Machine against it. Below this comment the code is
// the old Machine's, renamed.
type RefMachine struct {
	Space  *vm.Space
	Cycles func(uint64)
}

func (m *RefMachine) charge(c uint64) {
	if m.Cycles != nil {
		m.Cycles(c)
	}
}

// Push pushes v onto the context's stack.
func (m *RefMachine) Push(ctx *Context, v uint32) error {
	ctx.SP -= 4
	return m.Space.Write32(ctx.SP, v)
}

// Pop pops the top of stack.
func (m *RefMachine) Pop(ctx *Context) (uint32, error) {
	v, err := m.Space.Read32(ctx.SP)
	if err != nil {
		return 0, err
	}
	ctx.SP += 4
	return v, nil
}

// Peek reads the stack word at SP + 4*idx without popping.
func (m *RefMachine) Peek(ctx *Context, idx int) (uint32, error) {
	return m.Space.Read32(ctx.SP + uint32(4*idx))
}

// Step executes a single instruction. It returns a StopNone Stop for an
// ordinary instruction, a StopTrap or StopHalt Stop for TRAP/HALT, or an
// error (wrapped in *Fault) for memory violations, decode failures and
// division by zero.
func (m *RefMachine) Step(ctx *Context) (Stop, error) {
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
