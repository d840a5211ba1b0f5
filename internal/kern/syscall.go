package kern

import (
	"fmt"

	"repro/internal/vm"
)

// Syscall numbers. The classic ones use their OpenBSD 3.6 values; the
// SecModule numbers (301-320) are registered by internal/core and match
// the paper's Figure 4.
const (
	SYSexit     = 1
	SYSfork     = 2
	SYSwrite    = 4
	SYSwait4    = 7
	SYSobreak   = 17
	SYSgetpid   = 20
	SYSptrace   = 26
	SYSkill     = 37
	SYSexecve   = 59
	SYSsocket   = 97
	SYSbind     = 104
	SYSsendto   = 133
	SYSrecvfrom = 29
	SYSmsgget   = 225
	SYSmsgsnd   = 226
	SYSmsgrcv   = 227
	SYSyield    = 298
)

// Sysret is the result of a syscall handler: a value, an errno, or a
// request to block on a wait queue (the syscall is retried after
// Wakeup of that queue, BSD tsleep/wakeup style). A nil BlockOn means
// the syscall completed.
type Sysret struct {
	Val     uint32
	Err     int
	BlockOn *WaitQ
}

// SyscallFn is a syscall handler. args holds exactly the argument words
// its table entry declares, read from the caller's stack (or handed over
// by a native caller); pointer arguments refer to the caller's address
// space and must be accessed via CopyIn/CopyOut. The slice is the
// kernel's buffer, valid only until the handler returns.
type SyscallFn func(k *Kernel, p *Proc, args []uint32) Sysret

// Sysent is one entry of the syscall table, after OpenBSD's struct
// sysent: the syscall's name, the number of argument words its handler
// reads (sy_narg) and the handler. A trap reads exactly NArgs words off
// the caller's stack and hands the handler a slice of that length, so a
// handler reading past its declared count panics.
type Sysent struct {
	Name  string
	NArgs int
	Fn    SyscallFn
}

// maxSyscallArgs is the most argument words a syscall may declare.
const maxSyscallArgs = 6

func ok(v uint32) Sysret    { return Sysret{Val: v} }
func fail(errno int) Sysret { return Sysret{Err: errno} }
func block(q *WaitQ) Sysret { return Sysret{BlockOn: q} }

// CopyIn copies n bytes from the process's address space, charging the
// copyin cost.
func (k *Kernel) CopyIn(p *Proc, addr uint32, n int) ([]byte, error) {
	b := make([]byte, n)
	if err := k.CopyInto(p, addr, b); err != nil {
		return nil, err
	}
	return b, nil
}

// CopyInto fills buf from the process's address space, charging what
// CopyIn charges for len(buf) bytes.
func (k *Kernel) CopyInto(p *Proc, addr uint32, buf []byte) error {
	if err := p.Space.ReadInto(addr, buf); err != nil {
		return err
	}
	k.Clk.Advance(uint64(len(buf)) * k.Costs.CopyPerByte)
	return nil
}

// CopyOut copies buf into the process's address space, charging the
// copyout cost.
func (k *Kernel) CopyOut(p *Proc, addr uint32, buf []byte) error {
	if err := p.Space.WriteBytes(addr, buf); err != nil {
		return err
	}
	k.Clk.Advance(uint64(len(buf)) * k.Costs.CopyPerByte)
	return nil
}

// CopyInStr reads a NUL-terminated string (max 1024 bytes).
func (k *Kernel) CopyInStr(p *Proc, addr uint32) (string, error) {
	var out []byte
	for i := 0; i < 1024; i++ {
		b, err := p.Space.Read8(addr + uint32(i))
		if err != nil {
			return "", err
		}
		if b == 0 {
			k.Clk.Advance(uint64(len(out)) * k.Costs.CopyPerByte)
			return string(out), nil
		}
		out = append(out, b)
	}
	return "", fmt.Errorf("kern: unterminated string at %#x", addr)
}

// registerBaseSyscalls fills k's table with the classic syscalls. Each
// declares the argument words its handler reads.
func registerBaseSyscalls(k *Kernel) {
	k.RegisterSyscall(SYSexit, "exit", 1, sysExit)
	k.RegisterSyscall(SYSfork, "fork", 0, sysFork)
	k.RegisterSyscall(SYSwrite, "write", 3, sysWrite)
	k.RegisterSyscall(SYSwait4, "wait4", 2, sysWait4)
	k.RegisterSyscall(SYSobreak, "break", 1, sysObreak)
	k.RegisterSyscall(SYSgetpid, "getpid", 0, sysGetpid)
	k.RegisterSyscall(SYSptrace, "ptrace", 2, sysPtrace)
	k.RegisterSyscall(SYSkill, "kill", 2, sysKill)
	k.RegisterSyscall(SYSexecve, "execve", 1, sysExecve)
	k.RegisterSyscall(SYSsocket, "socket", 2, sysSocket)
	k.RegisterSyscall(SYSbind, "bind", 2, sysBind)
	k.RegisterSyscall(SYSsendto, "sendto", 4, sysSendto)
	k.RegisterSyscall(SYSrecvfrom, "recvfrom", 4, sysRecvfrom)
	k.RegisterSyscall(SYSmsgget, "msgget", 1, sysMsgget)
	k.RegisterSyscall(SYSmsgsnd, "msgsnd", 3, sysMsgsnd)
	k.RegisterSyscall(SYSmsgrcv, "msgrcv", 4, sysMsgrcv)
	k.RegisterSyscall(SYSyield, "yield", 0, sysYield)
}

func sysExit(k *Kernel, p *Proc, args []uint32) Sysret {
	k.doExit(p, int(int32(args[0])))
	return ok(0)
}

func sysYield(k *Kernel, p *Proc, args []uint32) Sysret {
	k.preempt = true
	return ok(0)
}

// sysGetpid implements the paper's section 4.3 requirement directly in
// the kernel: "getpid() and related calls must return the PIDs related
// to the client, not the handle!" A handle asking for its pid gets its
// client's pid, so library code executed by the handle on the client's
// behalf observes client-correct process identity.
func sysGetpid(k *Kernel, p *Proc, args []uint32) Sysret {
	k.Clk.Advance(k.Costs.SyscallSimple)
	if p.IsHandle && p.Pair != nil {
		return ok(uint32(p.Pair.PID))
	}
	return ok(uint32(p.PID))
}

func sysWrite(k *Kernel, p *Proc, args []uint32) Sysret {
	fd, addr, n := args[0], args[1], int(args[2])
	if fd != 1 && fd != 2 {
		return fail(EBADF)
	}
	if n < 0 || n > 1<<20 {
		return fail(EINVAL)
	}
	b, err := k.CopyIn(p, addr, n)
	if err != nil {
		return fail(EFAULT)
	}
	k.Console = append(k.Console, b...)
	return ok(uint32(n))
}

func sysObreak(k *Kernel, p *Proc, args []uint32) Sysret {
	// break(0) probes the current break without moving it (the
	// simulator's sbrk(0) convention; real libc tracks curbrk from the
	// end symbol instead, which a protected module cannot do because
	// its data segment is not the client's).
	if args[0] == 0 {
		return ok(p.Space.HeapEnd)
	}
	// The paper modified sys_obreak to request heap growth as shared
	// when the caller is half of a SecModule pair; vm.Obreak carries
	// that logic via the Partner link set up by ForceShareSpaces.
	if err := p.Space.Obreak(args[0]); err != nil {
		return fail(ENOMEM)
	}
	return ok(p.Space.HeapEnd)
}

func sysFork(k *Kernel, p *Proc, args []uint32) Sysret {
	if p.IsNative() {
		// Native processes cannot be forked (their Go state is not
		// duplicable); they use SpawnNative instead.
		return fail(ENOSYS)
	}
	child := k.newChild(p, p.Name+"-child")
	child.CPU.RV = 0 // fork returns 0 in the child
	// Fork hooks implement the paper's section 4.3 fork() behaviour:
	// the SecModule layer gives the child its own handle ("Multiple
	// clients should not share the handle").
	for _, h := range k.forkHooks {
		h(k, p, child)
	}
	k.ready(child)
	return ok(uint32(child.PID))
}

func sysWait4(k *Kernel, p *Proc, args []uint32) Sysret {
	wantPID := int(int32(args[0]))
	statusAddr := args[1]
	// p.children holds exactly p's unreaped children (reap unlinks),
	// so both the zombie search and the any-children check are O(own
	// children) instead of process-table scans, and the slice's fork
	// order makes multi-zombie reaping deterministic.
	for _, c := range p.children {
		if c.State != StateZombie {
			continue
		}
		if wantPID > 0 && c.PID != wantPID {
			continue
		}
		if statusAddr != 0 {
			if err := k.CopyOut(p, statusAddr, le32(uint32(c.ExitStatus))); err != nil {
				return fail(EFAULT)
			}
		}
		k.reap(c)
		return ok(uint32(c.PID))
	}
	if len(p.children) == 0 {
		return fail(ECHILD)
	}
	return block(&p.waitq)
}

func sysKill(k *Kernel, p *Proc, args []uint32) Sysret {
	pid, sig := int(int32(args[0])), int(args[1])
	t := k.procs[pid]
	if t == nil || t.State == StateZombie || t.State == StateDead {
		return fail(ESRCH)
	}
	// Paper section 4.3: signals "must be modified such that they
	// effect the client, not the handle" — a signal aimed at a handle
	// is redirected to its client.
	if t.IsHandle && t.Pair != nil {
		t = t.Pair
	}
	if sig == 0 {
		return ok(0)
	}
	t.KilledBy = sig
	k.doExit(t, 128+sig)
	return ok(0)
}

// sysPtrace enforces paper section 3.1 item 4: "ptrace() and related
// kernel calls must not allow tracing of any processes associated with
// the handle." Tracing an ordinary process succeeds (trivially, in the
// simulator); tracing a handle, a SecModule client, or anything with
// NoTrace fails with EPERM.
func sysPtrace(k *Kernel, p *Proc, args []uint32) Sysret {
	pid := int(int32(args[1]))
	t := k.procs[pid]
	if t == nil {
		return fail(ESRCH)
	}
	if t.NoTrace || t.IsHandle || (t.Pair != nil) {
		return fail(EPERM)
	}
	return ok(0)
}

func sysExecve(k *Kernel, p *Proc, args []uint32) Sysret {
	path, err := k.CopyInStr(p, args[0])
	if err != nil {
		return fail(EFAULT)
	}
	im := k.programs[path]
	if im == nil {
		return fail(ENOENT)
	}
	if p.IsNative() {
		return fail(ENOSYS)
	}
	// Exit hooks registered by the SecModule layer run the section 4.3
	// execve behaviour (detach session, kill handle) via ExecHooks.
	for _, h := range k.execHooks {
		h(k, p)
	}
	if err := k.loadImage(p, im); err != nil {
		return fail(ENOMEM)
	}
	// Does not return to the old image; RV in the fresh context is 0.
	return ok(0)
}

// execHooks run before an execve replaces a process image.
func (k *Kernel) OnExec(fn func(*Kernel, *Proc)) { k.execHooks = append(k.execHooks, fn) }

func le32(v uint32) []byte {
	return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
}

// WriteText pokes bytes into a mapped region regardless of its write
// protection — the kernel-side loader path (program text is mapped R-X
// for userland but the kernel writes it during load/decrypt).
//
// WriteText and ReadText are the only code that changes an entry's
// Prot, and each restores it before it returns, within one kernel call.
// No bump marks the change, so this is what lets the translations an
// SM32 process's cpu.Machine keeps between runs, which check only the
// space's vm.Generation, skip the protection check.
func WriteText(s *vm.Space, addr uint32, b []byte) error {
	e := s.FindEntry(addr)
	if e == nil {
		return fmt.Errorf("kern: WriteText: no entry at %#x", addr)
	}
	saved := e.Prot
	e.Prot |= vm.ProtWrite
	err := s.WriteBytes(addr, b)
	e.Prot = saved
	return err
}

// ReadText reads bytes from a mapped region regardless of read
// protection (kernel-side). Like WriteText, it restores the entry's
// Prot before it returns.
func ReadText(s *vm.Space, addr uint32, n int) ([]byte, error) {
	e := s.FindEntry(addr)
	if e == nil {
		return nil, fmt.Errorf("kern: ReadText: no entry at %#x", addr)
	}
	saved := e.Prot
	e.Prot |= vm.ProtRead
	b, err := s.ReadBytes(addr, n)
	e.Prot = saved
	return b, err
}
