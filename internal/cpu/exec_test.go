package cpu_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/clock"
	"repro/internal/cpu"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/vm"
)

// Exec must be invisible: stepped through Exec or one instruction at a
// time by RefMachine, the interpreter before it, a program leaves the
// same registers, memory, cycles, ticks and vm counters, and Exec
// returns at every point where a kernel checking for preemption after
// each instruction could have stopped.

// The layout of an exec world.
const (
	textA    = 0x10000 // the first text page
	textB    = 0x11000 // the page after it
	privPage = 0x20000 // private data, copy-on-write in a fork
	shareLo  = 0x40000 // [shareLo, shareHi) is force-shared in a pair
	dataPage = 0x40000 // two pages mapped before the handshake
	latePage = 0x50000 // mapped by the client after the handshake
	stackLo  = 0x7F000
	shareHi  = 0x80000 // also the stack top
)

// maxExecSpaces bounds the spaces of an exec world: the client, the
// handle and the fork child newExecWorld may build, and the forks
// between adds.
const maxExecSpaces = 6

// execWorld is the memory and clock one program runs against. Its
// clock is a kernel's, so the kernel's tick handler is installed.
type execWorld struct {
	clk    *clock.Clock
	spaces []*vm.Space // client, then the handle and a fork child if any
	run    *vm.Space   // the space the program runs in
	ctx    cpu.Context
}

// newExecWorld builds the world the world byte describes:
//
//	bits 0-1  text protection: r-x, rwx, --x, r-x
//	bits 2-3  the page after the text: the same, unmapped, rw-, the same
//	bit  4    place the program across the two text pages
//	bit  5    run in the handle of a force-shared pair
//	bit  6    run in a fork child of that space
func newExecWorld(t *testing.T, world byte, prog []byte) *execWorld {
	t.Helper()
	k := kern.New()
	w := &execWorld{clk: k.Clk}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	space := func() *vm.Space {
		s := vm.NewSpace(k.Phys, k.Clk)
		s.SetCosts(&k.Costs)
		w.spaces = append(w.spaces, s)
		return s
	}
	mapIn := func(s *vm.Space, start, size uint32, prot vm.Prot, name string) {
		t.Helper()
		_, err := s.Map(start, size, prot, name)
		must(err)
	}
	client := space()
	mapIn(client, dataPage, 2*mem.PageSize, vm.ProtRW, "data")
	must(client.Write32(dataPage+0x10, 0xDA7A))
	mapIn(client, stackLo, shareHi-stackLo, vm.ProtRW, "stack")
	w.run = client
	if world&0x20 != 0 {
		w.run = space()
		must(vm.ForceShareSpaces(w.run, client, shareLo, shareHi))
		mapIn(client, latePage, mem.PageSize, vm.ProtRW, "late")
		must(client.Write32(latePage+0x10, 0x1A7E))
	}

	prot := [...]vm.Prot{vm.ProtRX, vm.ProtRWX, vm.ProtExec, vm.ProtRX}[world&3]
	next := [...]vm.Prot{prot, 0, vm.ProtRW, prot}[world>>2&3]
	mapIn(w.run, textA, mem.PageSize, prot, "text")
	if next != 0 {
		mapIn(w.run, textB, mem.PageSize, next, "next")
	}
	pc := uint32(textA)
	if world&0x10 != 0 {
		pc = textB - uint32(len(prog)+1)/2
	}
	// Load the program the way kern.WriteText does, dropping what falls
	// on an unmapped page.
	if next == 0 && pc+uint32(len(prog)) > textB {
		prog = prog[:textB-pc]
	}
	for a := pc &^ (mem.PageSize - 1); a < pc+uint32(len(prog)); a += mem.PageSize {
		e := w.run.FindEntry(a)
		saved := e.Prot
		e.Prot |= vm.ProtWrite
		lo, hi := max(a, pc), min(a+mem.PageSize, pc+uint32(len(prog)))
		must(w.run.WriteBytes(lo, prog[lo-pc:hi-pc]))
		e.Prot = saved
	}
	mapIn(w.run, privPage, mem.PageSize, vm.ProtRW, "private")
	must(w.run.Write32(privPage+0x10, 0x9217))
	if world&0x40 != 0 {
		w.run = w.run.Fork()
		w.spaces = append(w.spaces, w.run)
	}
	w.ctx = cpu.Context{PC: pc, SP: shareHi, FP: shareHi}
	return w
}

// between changes w's memory as kernel code between two runs could, as
// control byte c asks. Only a byte with bit 4 clear asks: bit 7 forks
// the space the program runs in, keeping the child so that the pages
// both hold stay copy-on-write, and bits 5-6 name a page to unmap and
// map again empty: the private page, the first data page or the stack
// page. A world stops forking at maxExecSpaces spaces, since diff
// compares every one after every call.
func (w *execWorld) between(t *testing.T, c byte) {
	t.Helper()
	if c&0x10 != 0 {
		return
	}
	if c&0x80 != 0 && len(w.spaces) < maxExecSpaces {
		w.spaces = append(w.spaces, w.run.Fork())
	}
	if i := c >> 5 & 3; i != 0 {
		page := [...]uint32{0, privPage, dataPage, stackLo}[i]
		w.run.Unmap(page, page+mem.PageSize)
		if _, err := w.run.Map(page, mem.PageSize, vm.ProtRW, "remapped"); err != nil {
			t.Fatal(err)
		}
	}
}

// diff returns a description of the first difference between w and o,
// or "".
func (w *execWorld) diff(o *execWorld) string {
	if w.ctx != o.ctx {
		return fmt.Sprintf("registers %+v, want %+v", w.ctx, o.ctx)
	}
	if w.clk.Cycles() != o.clk.Cycles() || w.clk.Ticks() != o.clk.Ticks() {
		return fmt.Sprintf("clock at %d cycles, %d ticks; want %d, %d",
			w.clk.Cycles(), w.clk.Ticks(), o.clk.Cycles(), o.clk.Ticks())
	}
	for i, s := range w.spaces {
		if got, want := spaceState(s), spaceState(o.spaces[i]); got != want {
			return fmt.Sprintf("space %d:\n%swant\n%s", i, got, want)
		}
		for _, e := range s.Entries() {
			oe := o.spaces[i].FindEntry(e.Start)
			for idx := uint32(0); idx < (e.End-e.Start)>>mem.PageShift; idx++ {
				an := e.Anon(idx)
				if an == nil {
					continue
				}
				if oan := oe.Anon(idx); oan == nil || an.Page.Data != oan.Page.Data {
					return fmt.Sprintf("space %d: page %#x differs", i, e.Start+idx<<mem.PageShift)
				}
			}
		}
	}
	return ""
}

// spaceState renders a space's counters and entries.
func spaceState(s *vm.Space) string {
	var b strings.Builder
	fmt.Fprintf(&b, "faults=%d zero=%d cow=%d share=%d\n", s.Faults, s.ZeroFills, s.COWCopies, s.ShareFaults)
	for _, e := range s.Entries() {
		fmt.Fprintf(&b, "  %#x-%#x %s %s shared=%v cow=%v pages=%d\n",
			e.Start, e.End, e.Prot, e.Name, e.Shared, e.COW, e.Resident())
	}
	return b.String()
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// execSeedSources are FuzzAssemble's seed programs (internal/asm) that
// assemble, followed by programs that reach every page of an exec
// world: its shared, late-mapped and private data, its stack, and its
// own text, in loops long enough to cross a tick.
var execSeedSources = []string{
	"; empty program\n",
	".text\n.global main\nmain:\n\tPUSHI 0\n\tSETRV\n\tRET\n",
	".text\n.global _start\n_start:\n\tCALL main\n\tPUSHRV\n\tTRAP 1\n",
	".text\nf:\n\tENTER 8\n\tLOADFP -4\n\tPUSHI 0x10\n\tADD\n\tSTOREFP -8\n\tLEAVE\n\tRET\n",
	".data\nmsg:\n.asciz \"hello\"\n.align 4\ntab:\n.word 1, 2, 3\n.byte 'a', 0xff\n",
	".bss\nbuf:\n.space 64\n",
	".text\nloop:\n\tJMP loop\n\tJNZ other+4\n\tJZ other-2\n",
	".text\n.global f\nf:\n\tPUSHI 'x'\n\tTRAP 20\n# hash comment\n",

	// Read the shared, late-mapped and private pages; write the sum to
	// the private page and the stack; loop.
	"\tPUSHI 0x40010\n\tLOAD\n\tPUSHI 0x50010\n\tLOAD\n\tADD\n\tDUP\n\tPUSHI 0x20010\n\tSTORE\n" +
		"\tPUSHI 0x7FFF0\n\tSTORE\n\tPUSHI 0x41FFE\n\tLOAD\n\tDROP\n\tJMP 0x10000\n",
	// A call frame in a loop, with a syscall.
	"\tPUSHI 7\n\tCALL 0x10010\n\tADDSP 4\n\tJMP 0x10000\n\tENTER 4\n\tLOADFP 8\n\tPUSHI 3\n\tMUL\n" +
		"\tSTOREFP -4\n\tLOADFP -4\n\tSETRV\n\tTRAP 20\n\tLEAVE\n\tRET\n",
	// Overwrite the JMP ahead with NOP, NOP, HALT, NOP, then run into
	// it.
	"\tPUSHI 0x10000\n\tPUSHI 0x10010\n\tSTORE\n\tPUSHI 0x55\n\tJMP 0x10000\n",
	// Byte accesses and a word straddling into the second data page.
	"\tPUSHI 0x40FFF\n\tLOADB\n\tPUSHI 0x40FFE\n\tSTOREB\n\tPUSHI 0x40FFE\n\tLOAD\n\tPUSHI 0x40FFD\n" +
		"\tSTORE\n\tJMP 0x10000\n",
	// Words straddling from the private page into an unmapped one.
	"\tPUSHI 0x20FFE\n\tLOAD\n",
	"\tPUSHI 7\n\tPUSHI 0x20FFD\n\tSTORE\n",
	// Load the private page from a read hit, store to it and load it
	// again: in a fork child the store breaks copy-on-write partway
	// through a run, and the next load must see the new page.
	"\tPUSHI 0x20010\n\tLOAD\n\tDROP\n\tPUSHI 0x20010\n\tLOAD\n\tPUSHI 1\n\tADD\n\tPUSHI 0x20010\n" +
		"\tSTORE\n\tPUSHI 0x20010\n\tLOAD\n\tDROP\n\tJMP 0x10000\n",
	// Read the private page, then run the stack on it: in a fork child
	// the first push breaks copy-on-write, so it must not write where
	// the read found the page.
	"\tPUSHI 0x20010\n\tLOAD\n\tDROP\n\tPUSHI 0x20014\n\tSETSP\n\tDUP\n\tPUSHI 1\n\tADD\n" +
		"\tPUSHI 0x80000\n\tSETSP\n\tPUSHI 0x20010\n\tLOAD\n\tDROP\n\tJMP 0x10000\n",
	// Read the program's own text after fetching from it, by LOAD and
	// by a LOADFP that starts a run (LOADB's full path ends the run
	// before it): on a --x page both fault.
	"\tNOP\n\tNOP\n\tPUSHI 0x10000\n\tLOAD\n\tJMP 0x10000\n",
	"\tPUSHI 0x10000\n\tSETFP\n\tPUSHI 0x7FF00\n\tLOADB\n\tLOADFP 0\n\tJMP 0x10000\n",
	// Return into the stack page the return address was popped from:
	// the fetch faults.
	"\tPUSHI 0x7FFF0\n\tRET\n",
	// Move SP to the boundary of the two data pages and push and pop
	// on both, load and store a word straddling it, then move SP back.
	"\tPUSHI 0x41004\n\tSETSP\n\tPUSHI 5\n\tPUSHI 6\n\tADD\n\tPUSHI 7\n\tSWAP\n" +
		"\tPUSHI 0x40FFD\n\tLOAD\n\tDROP\n\tPUSHI 3\n\tPUSHI 0x40FFD\n\tSTORE\n\tDROP\n\tDROP\n" +
		"\tPUSHI 0x80000\n\tSETSP\n\tPUSHI 1\n\tDROP\n\tJMP 0x10000\n",
}

// cowSeedSources store, between runs that fork, to pages the fork made
// copy-on-write: the first increments a private word through its stack,
// so both pages sit in write windows when a run ends; the second also
// stores to the first data page.
var cowSeedSources = []string{
	"\tPUSHI 0x20010\n\tLOAD\n\tPUSHI 1\n\tADD\n\tPUSHI 0x20010\n\tSTORE\n\tJMP 0x10000\n",
	"\tPUSHI 0x20010\n\tLOAD\n\tDUP\n\tPUSHI 0x40010\n\tSTORE\n\tPUSHI 1\n\tADD\n\tPUSHI 0x20010\n" +
		"\tSTORE\n\tJMP 0x10000\n",
}

// FuzzExec runs one program in two identical worlds, through Exec in
// one and RefMachine's Step in the other, with one Machine for all of
// a world's Exec calls, as the kernel keeps one per process. ctl drives
// the calls: each byte gives an Exec call its instruction limit (1 <<
// the low four bits) and first, with bit 4 set, moves both clocks to
// (byte >> 5) cycles before their next tick, or with bit 4 clear
// changes both worlds' memory as between says. After every call the
// reference steps as many instructions as Exec reported; no earlier one
// may have trapped, halted, faulted or fired a tick, and the worlds
// must agree.
func FuzzExec(f *testing.F) {
	ctls := [][]byte{{0x0F}, {0x00, 0x01, 0x1C, 0x3F, 0xFF}, {0x93, 0x18, 0x0A, 0xB5}}
	worlds := []byte{0x00, 0x01, 0x02, 0x1D, 0x16, 0x21, 0x40, 0x61, 0x35}
	for i, src := range execSeedSources {
		o, err := asm.Assemble("seed.s", src)
		if err != nil {
			f.Fatalf("seed %d: %v", i, err)
		}
		for j, w := range worlds {
			f.Add(w, ctls[(i+j)%len(ctls)], o.Text)
		}
	}
	// Runs of up to 64 instructions, which fill the windows once the
	// TLBs are warm, then a fork between two runs (0x86), a remapped
	// private page (0x26), and a fork with a remapped stack (0xE6) or
	// data page (0xC6).
	cowCtl := []byte{0x06, 0x06, 0x06, 0x06, 0x86, 0x06, 0x26, 0x06, 0xE6, 0x06, 0xC6, 0x06}
	for i, src := range cowSeedSources {
		o, err := asm.Assemble("seed.s", src)
		if err != nil {
			f.Fatalf("copy-on-write seed %d: %v", i, err)
		}
		for _, w := range []byte{0x00, 0x21, 0x40, 0x61} {
			f.Add(w, cowCtl, o.Text)
		}
	}
	f.Fuzz(func(t *testing.T, world byte, ctl, prog []byte) {
		if len(prog) > 1024 {
			prog = prog[:1024]
		}
		if len(ctl) == 0 {
			ctl = []byte{0}
		}
		got, want := newExecWorld(t, world, prog), newExecWorld(t, world, prog)
		m := &cpu.Machine{Space: got.run, Clock: got.clk}
		ref := &cpu.RefMachine{Space: want.run, Cycles: want.clk.Advance}
		budget := 4096
		for call := 0; call < 256 && budget > 0; call++ {
			c := ctl[call%len(ctl)]
			got.between(t, c)
			want.between(t, c)
			if c&0x10 != 0 {
				for _, w := range []*execWorld{got, want} {
					if u, d := w.clk.UntilTick(), uint64(c>>5); u > d {
						w.clk.Advance(u - d)
					}
				}
			}
			limit := min(1<<(c&15), budget)
			n, stop, err := m.Exec(&got.ctx, limit)
			if n < 1 || n > limit {
				t.Fatalf("call %d: Exec ran %d instructions, limit %d", call, n, limit)
			}
			budget -= n
			var wstop cpu.Stop
			var werr error
			ticks := want.clk.Ticks()
			for i := 1; i <= n; i++ {
				wstop, werr = ref.Step(&want.ctx)
				if i < n && (werr != nil || wstop.Kind != cpu.StopNone || want.clk.Ticks() != ticks) {
					t.Fatalf("call %d: Exec ran %d instructions past instruction %d, which stopped with %+v, %v, ticks %d -> %d",
						call, n-i, i, wstop, werr, ticks, want.clk.Ticks())
				}
			}
			if stop != wstop || errText(err) != errText(werr) {
				t.Fatalf("call %d: Exec stopped with %+v, %q; want %+v, %q", call, stop, errText(err), wstop, errText(werr))
			}
			if d := got.diff(want); d != "" {
				t.Fatalf("call %d (%d instructions): %s", call, n, d)
			}
			if err != nil || stop.Kind == cpu.StopHalt {
				return
			}
		}
	})
}
