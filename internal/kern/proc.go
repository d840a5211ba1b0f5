package kern

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/vm"
)

// Program loading. A linked obj.Image is laid out per the paper's
// Figure 2: text at its link base (R-X, below the data segment and
// outside the SecModule share range), data+bss from UserDataBase (RW-),
// a demand-mapped heap directly above bss, and a stack of UserStackMax
// bytes ending at UserStackTop. Encrypted text placements are loaded as
// ciphertext; decryption into a handle is the SecModule layer's job.

// loadImage replaces p's address space with a fresh one built from im
// and resets the CPU context to the image entry point.
func (k *Kernel) loadImage(p *Proc, im *obj.Image) error {
	old := p.Space
	s := k.newSpace()

	if len(im.Text) > 0 {
		base := mem.PageAlign(im.TextBase)
		size := mem.PageRoundUp(im.TextBase+uint32(len(im.Text))) - base
		if _, err := s.Map(base, size, vm.ProtRX, "text"); err != nil {
			return err
		}
		if err := WriteText(s, im.TextBase, im.Text); err != nil {
			return err
		}
	}

	dataEnd := im.DataBase + uint32(len(im.Data))
	bssEnd := im.BSSBase + im.BSSSize
	if bssEnd < dataEnd {
		bssEnd = dataEnd
	}
	segEnd := mem.PageRoundUp(bssEnd)
	if segEnd == im.DataBase {
		segEnd = im.DataBase + mem.PageSize // always map one data page
	}
	if _, err := s.Map(im.DataBase, segEnd-im.DataBase, vm.ProtRW, "data"); err != nil {
		return err
	}
	if len(im.Data) > 0 {
		if err := s.WriteBytes(im.DataBase, im.Data); err != nil {
			return err
		}
	}
	s.HeapStart = segEnd
	s.HeapEnd = segEnd

	stackBase := uint32(UserStackTop - UserStackMax)
	if _, err := s.Map(stackBase, UserStackMax, vm.ProtRW, "stack"); err != nil {
		return err
	}

	if old != nil {
		old.UnmapAll()
	}
	p.Space = s
	p.machine = cpu.Machine{Space: s, Clock: k.Clk}
	p.CPU = cpu.Context{PC: im.Entry, SP: UserStackTop, FP: UserStackTop}
	p.started = true
	return nil
}

// Spawn creates a runnable SM32 process from a linked image.
func (k *Kernel) Spawn(name string, cred Cred, im *obj.Image) (*Proc, error) {
	p := k.newProc(name, k.newSpace())
	p.Cred = cred
	if err := k.loadImage(p, im); err != nil {
		delete(k.procs, p.PID)
		return nil, fmt.Errorf("kern: spawn %s: %w", name, err)
	}
	k.ready(p)
	return p, nil
}

// SpawnProgram spawns the registered program at path.
func (k *Kernel) SpawnProgram(path string, cred Cred) (*Proc, error) {
	im := k.programs[path]
	if im == nil {
		return nil, fmt.Errorf("kern: no program registered at %q", path)
	}
	p, err := k.Spawn(path, cred, im)
	if err != nil {
		return nil, err
	}
	p.Name = path
	return p, nil
}

// ForkInto is the kernel-side forcible fork the SecModule layer uses to
// create a handle process ("the kernel forcibly forks the child
// process", paper section 4): it clones p's address space and context
// into a new process without p executing fork(2) itself. The child is
// NOT made runnable; the caller finishes its setup first.
func (k *Kernel) ForkInto(p *Proc, name string) *Proc {
	return k.newChild(p, name)
}

// newChild creates a child of p with a forked copy of p's address
// space, inheriting credential and CPU context. Linking the child into
// p's children list here is load-bearing: exit-time reaping only scans
// that list, so every fork-like path must go through newChild or the
// process table regrows.
func (k *Kernel) newChild(p *Proc, name string) *Proc {
	child := k.newProc(name, p.Space.Fork())
	child.Parent = p
	if p.children == nil {
		p.children = p.child1[:0]
	}
	p.children = append(p.children, child)
	child.Cred = p.Cred
	child.CPU = p.CPU
	child.machine = cpu.Machine{Space: child.Space, Clock: k.Clk}
	return child
}

// Ready makes a process created by ForkInto runnable.
func (k *Kernel) Ready(p *Proc) { k.ready(p) }
