package kern_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/obj"
)

// TestTrapsReadDeclaredArgs traps every syscall of the kernel and of the
// SecModule layer from SM32 with exactly its declared argument words
// pushed at the top of the stack. Each trap must find all of them
// mapped: no trap reads a word past the stack top.
func TestTrapsReadDeclaredArgs(t *testing.T) {
	table := kern.New()
	core.Attach(table)
	traps := 0
	for no := uint32(0); no < 512; no++ {
		e := table.Sysent(no)
		if e.Fn == nil {
			continue
		}
		if e.NArgs < 0 || e.NArgs > 6 {
			t.Fatalf("syscall %d (%s) declares %d argument words", no, e.Name, e.NArgs)
		}
		k := kern.New()
		core.Attach(k)
		src := ".text\n.global _start\n_start:\n" +
			strings.Repeat("\tPUSHI 0\n", e.NArgs) +
			fmt.Sprintf("\tTRAP %d\n\tHALT\n", no)
		if _, err := k.Spawn(e.Name, kern.Cred{UID: 1}, link(t, src)); err != nil {
			t.Fatal(err)
		}
		if err := k.Run(1 << 30); err != nil {
			t.Fatalf("syscall %d (%s): %v", no, e.Name, err)
		}
		if k.SyscallCount == 0 {
			t.Fatalf("syscall %d (%s) was never trapped", no, e.Name)
		}
		if k.ArgFaults != 0 {
			t.Errorf("syscall %d (%s) with its %d words pushed read past the stack top", no, e.Name, e.NArgs)
		}
		traps++
	}
	if traps < 24 {
		t.Fatalf("trapped %d syscalls, want every kern and core syscall (24)", traps)
	}
}

// link assembles and links a standalone SM32 program.
func link(t *testing.T, src string) *obj.Image {
	t.Helper()
	o, err := asm.Assemble("prog.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	im, err := obj.Link(obj.LinkOptions{TextBase: kern.UserTextBase, DataBase: kern.UserDataBase}, []*obj.Object{o})
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return im
}
