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
// The kernel reads as many argument words as syscall n declares at SP,
// SP+4, ... and delivers the result by setting RV. The stack is
// unchanged by TRAP itself.
package cpu

import (
	"encoding/binary"
	"fmt"

	"repro/internal/clock"
	"repro/internal/mem"
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

// instrLen holds InstrLen for every opcode byte.
var instrLen = func() (t [256]uint8) {
	for op := range t {
		t[op] = 1
		if HasOperand(byte(op)) {
			t[op] = 5
		}
	}
	return t
}()

// InstrLen returns the encoded length of the instruction starting with op.
func InstrLen(op byte) uint32 { return uint32(instrLen[op]) }

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

// Machine executes SM32 instructions against an address space,
// charging each instruction's cycles to Clock (nil charges nothing).
//
// Instructions run from TLB hits: the fetch and the word accesses first
// try vm's hit-only probes, and each finished instruction adds its cost
// to a pending charge. An access the probes cannot serve — a miss, a
// byte access, a word or immediate straddling a page — flushes the
// pending charge and then takes vm's full path, which may fault or
// charge. The clock therefore sees the charges of one Advance per
// instruction, in the same order, and Exec flushes at least once per
// tick, so the tick fires after the same instruction.
//
// The machine also keeps run-local translations (see window): the page
// of the last fetch, of the last two words read and of the last two
// words written that hit the TLB. An access inside one of them skips
// the probe; the first read and write windows are tried inline at every
// access site, the second ones just before the TLB. A zero Machine
// holds none. They are dropped before every access that takes vm's full
// path, so none outlives a fault or a copy-on-write break, and they
// outlive a run, and the kernel code between two runs, only while the
// space and its vm.Generation are the ones the last run ended under:
// Exec and Step drop them otherwise. Whatever removes, replaces or
// re-flags a page moves the generation, and the only protection changes
// that do not (the kernel's WriteText and ReadText) are undone within
// one kernel call, so no translation needs a check of its own: while
// the generation holds, the TLB would answer the same. Each is filled
// only by a hit of its own kind, so a read-only, copy-on-write or --x
// page is never accessed on another kind's say-so.
type Machine struct {
	Space *vm.Space
	Clock *clock.Clock

	pending uint64 // cycles of executed instructions not yet charged
	full    bool   // the current instruction took vm's full path

	fetched, read, written window
	read2, written2        window // what the last fills of read and written displaced

	// ran and gen are the space and generation the last run ended
	// under.
	ran *vm.Space
	gen vm.Generation
}

// A window is a run-local translation: page holds the addresses from
// base, and an access of the window's width that starts less than limit
// bytes above base lies inside it. The zero window holds nothing.
type window struct {
	page  *mem.Page
	base  uint32
	limit uint32
}

// The limits of a fetch window (an opcode and its immediate) and of a
// word window: the offsets at which the access fits in the page.
const (
	fetchLimit = mem.PageSize - 4
	wordLimit  = mem.PageSize - 3
)

// drop forgets the run-local translations.
func (m *Machine) drop() {
	m.fetched, m.read, m.written = window{}, window{}, window{}
	m.read2, m.written2 = window{}, window{}
}

// begin starts a run: it keeps the translations only if the space and
// its generation are still the ones the last run ended under.
func (m *Machine) begin() {
	if m.Space != m.ran || m.Space.Generation() != m.gen {
		m.drop()
	}
}

// end finishes a run: it charges the pending cycles and notes what the
// translations were taken under.
func (m *Machine) end() {
	m.flush()
	m.ran, m.gen = m.Space, m.Space.Generation()
}

// flush charges the pending cycles.
func (m *Machine) flush() {
	if m.pending != 0 && m.Clock != nil {
		m.Clock.Advance(m.pending)
	}
	m.pending = 0
}

// miss prepares an access for vm's full path: it flushes the pending
// charge, drops the run-local translations and ends Exec's run after
// the current instruction.
func (m *Machine) miss() {
	m.flush()
	m.drop()
	m.full = true
}

// load reads the word at addr from the read window; false means the
// window does not hold it, and the caller takes read32.
func (m *Machine) load(addr uint32) (uint32, bool) {
	if off := addr - m.read.base; off < m.read.limit {
		return binary.LittleEndian.Uint32(m.read.page.Data[off:]), true
	}
	return 0, false
}

// store writes the word at addr to the write window; false means the
// window does not hold it, and the caller takes write32.
func (m *Machine) store(addr, v uint32) bool {
	if off := addr - m.written.base; off < m.written.limit {
		binary.LittleEndian.PutUint32(m.written.page.Data[off:], v)
		return true
	}
	return false
}

// pop is Pop from the read window; false means the caller takes Pop.
func (m *Machine) pop(ctx *Context) (uint32, bool) {
	v, ok := m.load(ctx.SP)
	if ok {
		ctx.SP += 4
	}
	return v, ok
}

// push is Push to the write window. It moves SP down either way, so on
// false the caller writes v at ctx.SP with write32.
func (m *Machine) push(ctx *Context, v uint32) bool {
	ctx.SP -= 4
	return m.store(ctx.SP, v)
}

// read32 reads the word at addr from the second read window or a TLB
// hit, which becomes the read window, or through vm.
func (m *Machine) read32(addr uint32) (uint32, error) {
	if off := addr - m.read2.base; off < m.read2.limit {
		m.read, m.read2 = m.read2, m.read
		return binary.LittleEndian.Uint32(m.read.page.Data[off:]), nil
	}
	if off := addr & (mem.PageSize - 1); off <= mem.PageSize-4 {
		if pg, ok := m.Space.Cached(addr, vm.AccessRead); ok {
			m.read, m.read2 = window{pg, addr - off, wordLimit}, m.read
			return binary.LittleEndian.Uint32(pg.Data[off:]), nil
		}
	}
	m.miss()
	return m.Space.Read32(addr)
}

// write32 writes the word at addr to the second write window or a TLB
// hit, which becomes the write window, or through vm.
func (m *Machine) write32(addr, v uint32) error {
	if off := addr - m.written2.base; off < m.written2.limit {
		m.written, m.written2 = m.written2, m.written
		binary.LittleEndian.PutUint32(m.written.page.Data[off:], v)
		return nil
	}
	if off := addr & (mem.PageSize - 1); off <= mem.PageSize-4 {
		if pg, ok := m.Space.Cached(addr, vm.AccessWrite); ok {
			m.written, m.written2 = window{pg, addr - off, wordLimit}, m.written
			binary.LittleEndian.PutUint32(pg.Data[off:], v)
			return nil
		}
	}
	m.miss()
	return m.Space.Write32(addr, v)
}

// Push pushes v onto the context's stack.
func (m *Machine) Push(ctx *Context, v uint32) error {
	ctx.SP -= 4
	return m.write32(ctx.SP, v)
}

// Pop pops the top of stack.
func (m *Machine) Pop(ctx *Context) (uint32, error) {
	v, err := m.read32(ctx.SP)
	if err != nil {
		return 0, err
	}
	ctx.SP += 4
	return v, nil
}

// Peek reads the stack word at SP + 4*idx without popping.
func (m *Machine) Peek(ctx *Context, idx int) (uint32, error) {
	return m.read32(ctx.SP + uint32(4*idx))
}

// decode reads the instruction at pc from the fetch window; false means
// the window does not hold it, and the caller takes fetch.
func (m *Machine) decode(pc uint32) (op byte, imm uint32, ok bool) {
	if off := pc - m.fetched.base; off < m.fetched.limit {
		b := m.fetched.page.Data[off : off+5]
		return b[0], binary.LittleEndian.Uint32(b[1:]), true
	}
	return 0, 0, false
}

// fetch reads the instruction at pc from a fetch TLB hit, which becomes
// the fetch window, or through vm: the opcode, then the immediate of an
// op that carries one, so a fault names the first byte that fails.
func (m *Machine) fetch(pc uint32) (op byte, imm uint32, err error) {
	if off := pc & (mem.PageSize - 1); off <= mem.PageSize-5 {
		if pg, ok := m.Space.CachedExec(pc); ok {
			m.fetched = window{pg, pc - off, fetchLimit}
			b := pg.Data[off : off+5]
			return b[0], binary.LittleEndian.Uint32(b[1:]), nil
		}
	}
	m.miss()
	if op, err = m.Space.FetchExec(pc); err != nil || !HasOperand(op) {
		return op, 0, err
	}
	imm, err = m.Space.FetchExec32(pc + 1)
	return op, imm, err
}

// Step executes a single instruction and charges it. It returns a
// StopNone Stop for an ordinary instruction, a StopTrap or StopHalt Stop
// for TRAP/HALT, or an error (wrapped in *Fault) for memory violations,
// decode failures and division by zero. A faulting instruction is not
// charged.
func (m *Machine) Step(ctx *Context) (Stop, error) {
	m.begin()
	stop, err := m.step(ctx)
	m.end()
	return stop, err
}

// Exec steps ctx up to max times and returns the number of instructions
// stepped, the last included. It returns early after an instruction
// that trapped, halted or faulted, that took vm's full path, or whose
// charge fires the clock's next tick: every point at which a caller
// checking for preemption after each Step could have stopped. The
// instructions' cycles are charged before it returns.
func (m *Machine) Exec(ctx *Context, max int) (n int, stop Stop, err error) {
	until := ^uint64(0)
	if m.Clock != nil {
		until = m.Clock.UntilTick()
	}
	m.begin()
	for n < max {
		n++
		m.full = false
		if stop, err = m.step(ctx); err != nil || stop.Kind != StopNone || m.full || m.pending >= until {
			break
		}
	}
	m.end()
	return n, stop, err
}

// step executes a single instruction, adding its cost to the pending
// charge. Every word access tries its run-local window first (load,
// store, pop, push) and on a miss takes the method that probes the TLB
// and then vm's full path.
func (m *Machine) step(ctx *Context) (Stop, error) {
	pc := ctx.PC
	op, imm, ok := m.decode(pc)
	var err error
	if !ok {
		if op, imm, err = m.fetch(pc); err != nil {
			return Stop{}, &Fault{PC: pc, Err: err}
		}
	}
	if op >= byte(opCount) {
		return Stop{}, &Fault{PC: pc, Err: fmt.Errorf("illegal instruction %#02x", op)}
	}
	next := pc + InstrLen(op)
	cost := uint64(costBase)

	fail := func(e error) (Stop, error) { return Stop{}, &Fault{PC: pc, Err: e} }

	switch op {
	case NOP:
	case HALT:
		ctx.PC = next
		m.pending += cost
		return Stop{Kind: StopHalt}, nil
	case TRAP:
		ctx.PC = next
		m.pending += cost
		return Stop{Kind: StopTrap, TrapNo: imm}, nil

	case PUSHI:
		cost = costMem
		if !m.push(ctx, imm) {
			if err = m.write32(ctx.SP, imm); err != nil {
				return fail(err)
			}
		}
	case DUP:
		cost = costMem
		v, ok := m.load(ctx.SP)
		if !ok {
			if v, err = m.Peek(ctx, 0); err != nil {
				return fail(err)
			}
		}
		if !m.push(ctx, v) {
			if err = m.write32(ctx.SP, v); err != nil {
				return fail(err)
			}
		}
	case DROP:
		ctx.SP += 4
	case SWAP:
		cost = costMem
		a, ok := m.pop(ctx)
		if !ok {
			if a, err = m.Pop(ctx); err != nil {
				return fail(err)
			}
		}
		b, ok := m.pop(ctx)
		if !ok {
			if b, err = m.Pop(ctx); err != nil {
				return fail(err)
			}
		}
		if !m.push(ctx, a) {
			if err = m.write32(ctx.SP, a); err != nil {
				return fail(err)
			}
		}
		if !m.push(ctx, b) {
			if err = m.write32(ctx.SP, b); err != nil {
				return fail(err)
			}
		}
	case OVER:
		cost = costMem
		v, ok := m.load(ctx.SP + 4)
		if !ok {
			if v, err = m.Peek(ctx, 1); err != nil {
				return fail(err)
			}
		}
		if !m.push(ctx, v) {
			if err = m.write32(ctx.SP, v); err != nil {
				return fail(err)
			}
		}

	case LOAD:
		cost = costMem
		addr, ok := m.pop(ctx)
		if !ok {
			if addr, err = m.Pop(ctx); err != nil {
				return fail(err)
			}
		}
		v, ok := m.load(addr)
		if !ok {
			if v, err = m.read32(addr); err != nil {
				return fail(err)
			}
		}
		if !m.push(ctx, v) {
			if err = m.write32(ctx.SP, v); err != nil {
				return fail(err)
			}
		}
	case STORE:
		cost = costMem
		addr, ok := m.pop(ctx)
		if !ok {
			if addr, err = m.Pop(ctx); err != nil {
				return fail(err)
			}
		}
		v, ok := m.pop(ctx)
		if !ok {
			if v, err = m.Pop(ctx); err != nil {
				return fail(err)
			}
		}
		if !m.store(addr, v) {
			if err = m.write32(addr, v); err != nil {
				return fail(err)
			}
		}
	case LOADB:
		cost = costMem
		addr, ok := m.pop(ctx)
		if !ok {
			if addr, err = m.Pop(ctx); err != nil {
				return fail(err)
			}
		}
		m.miss()
		var b byte
		if b, err = m.Space.Read8(addr); err != nil {
			return fail(err)
		}
		if !m.push(ctx, uint32(b)) {
			if err = m.write32(ctx.SP, uint32(b)); err != nil {
				return fail(err)
			}
		}
	case STOREB:
		cost = costMem
		addr, ok := m.pop(ctx)
		if !ok {
			if addr, err = m.Pop(ctx); err != nil {
				return fail(err)
			}
		}
		v, ok := m.pop(ctx)
		if !ok {
			if v, err = m.Pop(ctx); err != nil {
				return fail(err)
			}
		}
		m.miss()
		if err = m.Space.Write8(addr, byte(v)); err != nil {
			return fail(err)
		}
	case LOADFP:
		cost = costMem
		v, ok := m.load(ctx.FP + imm)
		if !ok {
			if v, err = m.read32(ctx.FP + imm); err != nil {
				return fail(err)
			}
		}
		if !m.push(ctx, v) {
			if err = m.write32(ctx.SP, v); err != nil {
				return fail(err)
			}
		}
	case STOREFP:
		cost = costMem
		v, ok := m.pop(ctx)
		if !ok {
			if v, err = m.Pop(ctx); err != nil {
				return fail(err)
			}
		}
		if !m.store(ctx.FP+imm, v) {
			if err = m.write32(ctx.FP+imm, v); err != nil {
				return fail(err)
			}
		}

	case ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, SHL, SHR,
		EQ, NE, LT, LE, GT, GE, LTU, GEU:
		cost = costMem
		if op == MUL || op == DIV || op == MOD {
			cost = costMulDiv
		}
		b, ok := m.pop(ctx)
		if !ok {
			if b, err = m.Pop(ctx); err != nil {
				return fail(err)
			}
		}
		a, ok := m.pop(ctx)
		if !ok {
			if a, err = m.Pop(ctx); err != nil {
				return fail(err)
			}
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
		if !m.push(ctx, r) {
			if err = m.write32(ctx.SP, r); err != nil {
				return fail(err)
			}
		}
	case NOT, NEG:
		cost = costMem
		v, ok := m.pop(ctx)
		if !ok {
			if v, err = m.Pop(ctx); err != nil {
				return fail(err)
			}
		}
		if op == NOT {
			v = boolWord(v == 0)
		} else {
			v = -v
		}
		if !m.push(ctx, v) {
			if err = m.write32(ctx.SP, v); err != nil {
				return fail(err)
			}
		}

	case JMP:
		cost = costBranch
		next = imm
	case JZ, JNZ:
		cost = costBranch
		v, ok := m.pop(ctx)
		if !ok {
			if v, err = m.Pop(ctx); err != nil {
				return fail(err)
			}
		}
		if (v == 0) == (op == JZ) {
			next = imm
		}
	case CALL:
		cost = costBranch + costMem
		if !m.push(ctx, next) {
			if err = m.write32(ctx.SP, next); err != nil {
				return fail(err)
			}
		}
		next = imm
	case CALLI:
		cost = costBranch + costMem
		target, ok := m.pop(ctx)
		if !ok {
			if target, err = m.Pop(ctx); err != nil {
				return fail(err)
			}
		}
		if !m.push(ctx, next) {
			if err = m.write32(ctx.SP, next); err != nil {
				return fail(err)
			}
		}
		next = target
	case RET:
		cost = costBranch + costMem
		ra, ok := m.pop(ctx)
		if !ok {
			if ra, err = m.Pop(ctx); err != nil {
				return fail(err)
			}
		}
		next = ra

	case ENTER:
		cost = costMem
		if !m.push(ctx, ctx.FP) {
			if err = m.write32(ctx.SP, ctx.FP); err != nil {
				return fail(err)
			}
		}
		ctx.FP = ctx.SP
		ctx.SP -= imm
	case LEAVE:
		cost = costMem
		ctx.SP = ctx.FP
		fp, ok := m.pop(ctx)
		if !ok {
			if fp, err = m.Pop(ctx); err != nil {
				return fail(err)
			}
		}
		ctx.FP = fp

	case GETSP, GETFP, PUSHRV:
		cost = costMem
		v := ctx.SP
		if op == GETFP {
			v = ctx.FP
		} else if op == PUSHRV {
			v = ctx.RV
		}
		if !m.push(ctx, v) {
			if err = m.write32(ctx.SP, v); err != nil {
				return fail(err)
			}
		}
	case SETSP, SETFP, SETRV:
		v, ok := m.pop(ctx)
		if !ok {
			if v, err = m.Pop(ctx); err != nil {
				return fail(err)
			}
		}
		switch op {
		case SETSP:
			ctx.SP = v
		case SETFP:
			ctx.FP = v
		default:
			ctx.RV = v
		}
	case ADDSP:
		ctx.SP += imm
	}

	ctx.PC = next
	m.pending += cost
	return Stop{}, nil
}

func boolWord(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Run steps the context until it traps, halts, faults, or maxSteps
// instructions have executed (maxSteps 0 = unlimited), ignoring clock
// ticks. Unit tests use it; the kernel runs Exec under its own
// preemption checks.
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
