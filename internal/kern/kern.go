// Package kern implements the simulated operating system kernel the
// SecModule reproduction runs on: processes, a round-robin scheduler
// preempted by the 100 Hz clock, a BSD-flavoured syscall layer, SysV
// message queues (the client/handle synchronization primitive from the
// paper's section 4.1), loopback datagram sockets (for the RPC
// baseline), and the two handle-protection rules from section 3.1:
// handle processes never dump core and can never be ptraced.
//
// Two kinds of process coexist:
//
//   - SM32 processes execute interpreted machine code out of their
//     address space. Everything where code-as-data matters (protected
//     module bodies, call stubs, crt0) runs this way.
//   - Native processes are Go code the kernel drives as a Stepper,
//     called inline from dispatch: each step gets the last syscall's
//     result and returns the next syscall or an exit. Blocking Go
//     functions run behind a goroutine adapter (SpawnNative). They make
//     the same syscalls with the same cycle charges, and exactly one
//     process (of either kind) runs at a time, so execution stays
//     deterministic. They exist so that bulky but security-irrelevant
//     userland (the RPC client/server, the fleet's session clients,
//     test drivers) does not have to be written in assembly.
package kern

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/clock"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/obj"
	"repro/internal/vm"
)

// User address-space layout, mirroring the paper's Figure 2.
const (
	// UserTextBase is where client program text is linked and loaded.
	UserTextBase = 0x00001000
	// UserDataBase is the bottom of the data segment, and the bottom of
	// the SecModule share range ("just below the traditional OpenBSD
	// data segment").
	UserDataBase = 0x00400000
	// UserStackTop is the initial stack pointer; the stack grows down.
	UserStackTop = 0x7FF00000
	// UserStackMax is the maximum stack size; the region
	// [UserStackTop-UserStackMax, UserStackTop) is mapped on demand.
	UserStackMax = 0x00100000
	// ShareStart/ShareEnd delimit the range force-shared between a
	// SecModule client and its handle: everything from the data segment
	// to the top of the stack.
	ShareStart = UserDataBase
	ShareEnd   = UserStackTop
	// SecretBase is the handle-only secret heap/stack region (outside
	// the share range; the client can never map or read it). Per the
	// paper, the top half is the handle's private stack.
	SecretBase = 0x90000000
	SecretSize = 0x00020000
	// HandleTextBase is where protected module text is mapped in the
	// handle process (never in the client).
	HandleTextBase = 0xA0000000
)

// Errno values (the subset the simulator uses), matching OpenBSD.
const (
	EPERM  = 1
	ENOENT = 2
	ESRCH  = 3
	EINTR  = 4
	E2BIG  = 7
	EBADF  = 9
	ECHILD = 10
	ENOMEM = 12
	EACCES = 13
	EFAULT = 14
	EBUSY  = 16
	EEXIST = 17
	EINVAL = 22
	EAGAIN = 35
	ENOSYS = 78
)

// Signals.
const (
	SIGILL  = 4
	SIGKILL = 9
	SIGSEGV = 11
)

// ProcState is the scheduling state of a process.
type ProcState int

// Process states.
const (
	StateRunnable ProcState = iota
	StateRunning
	StateSleeping
	StateZombie
	StateDead
)

func (s ProcState) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateZombie:
		return "zombie"
	default:
		return "dead"
	}
}

// Cred is the credential blob a process presents to the SecModule
// layer; the kernel treats it opaquely.
type Cred struct {
	UID  int
	Name string
	// SMod carries the serialized SecModule credential (policy package
	// assertion) linked into the client at build time (section 4.2:
	// "the objects that hold ... the credentials that allow access").
	SMod []byte
}

// Proc is one simulated process.
type Proc struct {
	PID    int
	Name   string
	Parent *Proc
	// children are the procs forked from this one, so exit-time orphan
	// reaping is O(own children) rather than a process-table scan.
	// child1 backs the slice until a second child, so a SecModule
	// client's one handle costs no allocation.
	children []*Proc
	child1   [1]*Proc
	Space    *vm.Space
	CPU      cpu.Context
	State    ProcState
	Cred     Cred

	// machine runs an SM32 process's code on Space. It lasts as long as
	// the address space, so the translations it keeps between runs
	// survive a trap: loadImage and fork give each new SM32 space a new
	// machine, and exit forgets it.
	machine cpu.Machine

	// ExitStatus is valid once State >= StateZombie.
	ExitStatus int
	// KilledBy is the fatal signal, if any.
	KilledBy int

	// SecModule flags (paper section 3.1): a handle never dumps core
	// and can never be traced; Pair links client and handle.
	IsHandle   bool
	NoCoreDump bool
	NoTrace    bool
	Pair       *Proc

	// sleepOn is the wait queue the process sleeps on while
	// StateSleeping.
	sleepOn *WaitQ
	// waitq is where the process sleeps in wait4 until a child exits.
	waitq WaitQ
	// nextRun/onRunq link the process into the kernel's intrusive FIFO
	// run queue; onRunq makes the duplicate check in ready O(1) where
	// the old slice scan was O(queue length) per wakeup.
	nextRun *Proc
	onRunq  bool
	// args holds the arguments of the syscall being serviced. It lives
	// in the process so that servicing a syscall allocates nothing.
	args [maxSyscallArgs]uint32
	// pending marks a blocked syscall, number pendingNo, to retry on
	// wakeup. An SM32 retry rereads its arguments from the user stack;
	// a native retry finds them still in args.
	pending   bool
	pendingNo uint32
	// native is a native process's handle and body (nil for SM32
	// procs).
	native *Sys

	// fds is allocated on the first socket and emptied at exit.
	fds    map[int]*Socket
	nextFD int

	// Heap bookkeeping mirrors Space but survives exec.
	started bool
	// released marks a descriptor its creator handed back (Release):
	// once the process is reaped and nothing in the kernel points at
	// it, it is reused.
	released bool
}

// IsNative reports whether the process is a native-Go process.
func (p *Proc) IsNative() bool { return p.native != nil }

// Kernel is the simulated kernel instance.
type Kernel struct {
	Clk  *clock.Clock
	Phys *mem.Phys

	// Costs is this machine's cost table. New installs the baseline
	// (clock.Base()); a heterogeneous fleet overwrites it — via
	// SetCosts, before the first process is spawned — with the shard's
	// backend-profile table. Every hot-path charge in the kernel, the
	// VM layer, and the SecModule layer reads this table, never the
	// clock package constants directly.
	Costs clock.Costs

	procs map[int]*Proc
	// runqHead/runqTail form the intrusive FIFO run queue (linked
	// through Proc.nextRun). Enqueue and dequeue are O(1); with a fleet
	// shard parking and waking thousands of client/handle procs per
	// stretch, the old slice-based duplicate scan in ready was O(n) per
	// wakeup (see BenchmarkReadyAlreadyQueued).
	runqHead *Proc
	runqTail *Proc
	cur      *Proc
	lastRun  *Proc
	nextPID  int
	preempt  bool

	// nlive counts processes that are neither zombie nor dead,
	// maintained at the two transitions that matter (newProc, doExit).
	// Run/RunUntil consult it on every empty run-queue pick for
	// deadlock detection; the process-table scan it replaces was the
	// last O(procs) cost on that path at fleet-shard scale (see
	// BenchmarkLiveCount).
	nlive int

	// sysent is the syscall table, indexed by number; an entry with no
	// handler, or a number past the end, is ENOSYS.
	sysent []Sysent

	// spareProcs and spareSys hold released descriptors, most recently
	// released last, for newProc and SpawnStepper to reuse (at most
	// maxSpareProcs each).
	spareProcs []*Proc
	spareSys   []*Sys

	msgqs     map[int]*MsgQueue
	msgqKeys  map[int32]int
	nextMsqID int
	// spareMsgqs holds freed anonymous queues, most recently freed
	// last, for AllocMsgq to reuse (at most maxSpareMsgqs).
	spareMsgqs []*MsgQueue

	ports map[uint16]*Socket

	// programs is the simulated filesystem of executable images,
	// consulted by execve.
	programs map[string]*obj.Image

	// Console accumulates write(2) output to fd 1 and 2.
	Console []byte

	// Cores records PIDs that dumped core (must never include handles).
	Cores map[int]bool

	// exitHooks run when a process exits for any reason; the SecModule
	// layer uses them to tear down sessions and kill handles.
	exitHooks []func(*Kernel, *Proc)
	// execHooks run before execve replaces a process image (section 4.3
	// execve: detach the session, kill the handle, then exec).
	execHooks []func(*Kernel, *Proc)
	// forkHooks run after fork creates a child, before it is readied.
	forkHooks []func(k *Kernel, parent, child *Proc)

	// Stats.
	ContextSwitches uint64
	SyscallCount    uint64
	// ArgFaults counts SM32 traps that found a declared argument word
	// unmapped past the caller's stack and read it as zero.
	ArgFaults uint64

	// MaxStepsPerSlice bounds SM32 instructions executed per dispatch
	// when no tick fires, keeping runaway loops schedulable.
	MaxStepsPerSlice int
}

// New creates a kernel with a fresh clock and the default physical
// memory size from the paper's Figure 7 (512 MB).
func New() *Kernel {
	k := &Kernel{
		Clk:       clock.New(),
		Phys:      mem.NewPhys(536_440_832),
		Costs:     clock.Base(),
		procs:     map[int]*Proc{},
		sysent:    make([]Sysent, syscallTableSize),
		msgqs:     map[int]*MsgQueue{},
		msgqKeys:  map[int32]int{},
		ports:     map[uint16]*Socket{},
		programs:  map[string]*obj.Image{},
		Cores:     map[int]bool{},
		nextPID:   0,
		nextMsqID: 1,

		MaxStepsPerSlice: 1 << 20,
	}
	k.Clk.OnTick(func() {
		k.Clk.Advance(k.Costs.TickHandler)
		k.preempt = true
	})
	registerBaseSyscalls(k)
	return k
}

// SetCosts installs a cost table. It must be called before the first
// process is spawned: address spaces capture the table by reference,
// and mutating charges mid-run would break cycle-count determinism.
func (k *Kernel) SetCosts(c clock.Costs) { k.Costs = c }

// newSpace builds an address space charging faults against this
// machine's clock and cost table.
func (k *Kernel) newSpace() *vm.Space {
	s := vm.NewSpace(k.Phys, k.Clk)
	s.SetCosts(&k.Costs)
	return s
}

// syscallTableSize bounds syscall numbers: entries sit in a table
// indexed by number, and every number in this tree is below it.
const syscallTableSize = 512

// RegisterSyscall installs handler fn as syscall number no, which must
// be below syscallTableSize, reading nargs argument words (at most six).
// The SecModule layer uses this to add the Figure 4 syscalls (301-320)
// without kern importing core.
func (k *Kernel) RegisterSyscall(no uint32, name string, nargs int, fn SyscallFn) {
	if no >= syscallTableSize {
		panic(fmt.Sprintf("kern: syscall number %d, the table holds %d", no, syscallTableSize))
	}
	if nargs < 0 || nargs > maxSyscallArgs {
		panic(fmt.Sprintf("kern: syscall %s reads %d argument words, at most %d", name, nargs, maxSyscallArgs))
	}
	k.sysent[no] = Sysent{Name: name, NArgs: nargs, Fn: fn}
}

// Sysent returns the table entry of syscall no; its Fn is nil when no
// handler is registered.
func (k *Kernel) Sysent(no uint32) Sysent {
	if uint64(no) < uint64(len(k.sysent)) {
		return k.sysent[no]
	}
	return Sysent{}
}

// RegisterProgram adds an executable image under path in the simulated
// filesystem (for execve and SpawnProgram).
func (k *Kernel) RegisterProgram(path string, im *obj.Image) { k.programs[path] = im }

// Program looks up a registered image.
func (k *Kernel) Program(path string) *obj.Image { return k.programs[path] }

// OnExit registers a hook invoked whenever a process terminates.
func (k *Kernel) OnExit(fn func(*Kernel, *Proc)) { k.exitHooks = append(k.exitHooks, fn) }

// RecordHandleExits registers an exit hook recording the PID of every
// handle process as it exits, and returns the live map. Exited procs
// are reaped out of the process table, so post-mortem checks over
// k.Cores (the handle-never-dumps-core property from section 3.1)
// need this exit-time record; a late Proc lookup misses reaped handles.
func (k *Kernel) RecordHandleExits() map[int]bool {
	pids := map[int]bool{}
	k.OnExit(func(_ *Kernel, p *Proc) {
		if p.IsHandle {
			pids[p.PID] = true
		}
	})
	return pids
}

// HandleCoreDumps filters k.Cores down to PIDs that belong to handle
// processes: live ones answered from the process table, exited ones
// from a RecordHandleExits record. Section 3.1 requires this to stay
// empty — a handle must never dump core.
func (k *Kernel) HandleCoreDumps(handleExits map[int]bool) []int {
	var out []int
	for pid := range k.Cores {
		if p := k.procs[pid]; (p != nil && p.IsHandle) || handleExits[pid] {
			out = append(out, pid)
		}
	}
	sort.Ints(out)
	return out
}

// OnFork registers a hook invoked after fork(2) creates a child,
// before the child is readied.
func (k *Kernel) OnFork(fn func(k *Kernel, parent, child *Proc)) {
	k.forkHooks = append(k.forkHooks, fn)
}

// Proc returns the process with the given pid, or nil.
func (k *Kernel) Proc(pid int) *Proc { return k.procs[pid] }

func (k *Kernel) allocPID() int {
	k.nextPID++
	return k.nextPID
}

func (k *Kernel) newProc(name string, space *vm.Space) *Proc {
	p := popSpare(&k.spareProcs)
	*p = Proc{
		PID:    k.allocPID(),
		Name:   name,
		Space:  space,
		State:  StateRunnable,
		nextFD: 3,
	}
	k.procs[p.PID] = p
	k.nlive++
	return p
}

// maxSpareProcs bounds the released process descriptors, and native
// Sys handles, a kernel keeps for reuse.
const maxSpareProcs = 64

// popSpare takes the most recently released object off list, or
// returns a new one.
func popSpare[T any](list *[]*T) *T {
	n := len(*list)
	if n == 0 {
		return new(T)
	}
	x := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return x
}

// pushSpare puts x on list unless it already holds limit.
func pushSpare[T any](list *[]*T, x *T, limit int) {
	if len(*list) < limit {
		*list = append(*list, x)
	}
}

// Release hands back the descriptor of p, a process its creator will
// not look at again: no reference to p, nor to its Sys, outlives the
// call on the creator's side. Once p has exited and been reaped, and
// the kernel itself no longer points at it, the next process spawned
// may reuse it, and a stepper's Sys with it. The fleet releases its
// session clients. A descriptor never released is never reused: the
// *Proc of an exited process still reads as that process, so callers
// may inspect it after the fact, as core's callers do a session's
// handle.
func (k *Kernel) Release(p *Proc) {
	p.released = true
	k.recycle(p)
}

// recycle reuses a released, reaped descriptor, unless the run queue
// still links it or it is being dispatched: pickNext and dispatch try
// again once they let go of it. The last process run drops its mark,
// so the next dispatch pays a context switch whichever process it runs.
func (k *Kernel) recycle(p *Proc) {
	if !p.released || p.State != StateDead || p.onRunq || p == k.cur {
		return
	}
	if k.lastRun == p {
		k.lastRun = nil
	}
	if s := p.native; s != nil && s.g == nil {
		*s = Sys{}
		pushSpare(&k.spareSys, s, maxSpareProcs)
	}
	*p = Proc{}
	pushSpare(&k.spareProcs, p, maxSpareProcs)
}

// ready puts p on the run queue (appending in FIFO order, exactly like
// the slice it replaced, so scheduling order — and therefore every
// deterministic cycle count — is unchanged).
func (k *Kernel) ready(p *Proc) {
	if p.State == StateZombie || p.State == StateDead {
		return
	}
	p.State = StateRunnable
	if p.onRunq {
		return
	}
	p.onRunq = true
	p.nextRun = nil
	if k.runqTail == nil {
		k.runqHead = p
	} else {
		k.runqTail.nextRun = p
	}
	k.runqTail = p
}

// WaitQ is a wait channel (BSD tsleep/wakeup): the processes asleep on
// one object, in the order they slept. Each queue is embedded in the
// object waited for (a message queue, a socket, a wait4 parent, a
// SecModule session, a parked fleet client), so sleeping and waking
// touch only that object, and neither allocates: the first sleeper is
// held inline, and the slice that takes more keeps its capacity. The
// zero value is an empty queue. A WaitQ must not be copied.
type WaitQ struct {
	waiters []*Proc
	// one backs waiters until a second process sleeps here.
	one [1]*Proc
}

// Wakeup makes every process sleeping on q runnable, in the order they
// slept (BSD wakeup()).
func (k *Kernel) Wakeup(q *WaitQ) {
	for _, p := range q.waiters {
		// Entries can be stale (the proc was readied through another
		// path and may sleep elsewhere now); only a proc still sleeping
		// on q wakes.
		if p.State == StateSleeping && p.sleepOn == q {
			p.sleepOn = nil
			k.ready(p)
		}
	}
	clear(q.waiters)
	q.waiters = q.waiters[:0]
}

// unsleep takes p off the queue it sleeps on (on exit while sleeping).
func (k *Kernel) unsleep(p *Proc) {
	q := p.sleepOn
	if q == nil {
		return
	}
	p.sleepOn = nil
	if i := slices.Index(q.waiters, p); i >= 0 {
		q.waiters = slices.Delete(q.waiters, i, i+1)
	}
}

func (k *Kernel) pickNext() *Proc {
	for k.runqHead != nil {
		p := k.runqHead
		k.runqHead = p.nextRun
		if k.runqHead == nil {
			k.runqTail = nil
		}
		p.nextRun = nil
		p.onRunq = false
		// Entries can go zombie/dead while queued (killed by another
		// proc's syscall); they are skipped here, as before.
		if p.State == StateRunnable {
			return p
		}
		k.recycle(p)
	}
	return nil
}

// HasRunnable reports whether any genuinely runnable process is queued
// (stale zombie entries are ignored). RunUntil predicates that inject
// timed work use it to advance the clock over idle gaps only when no
// real work is pending.
func (k *Kernel) HasRunnable() bool {
	for p := k.runqHead; p != nil; p = p.nextRun {
		if p.State == StateRunnable {
			return true
		}
	}
	return false
}

// liveCount returns the number of processes that are not zombies/dead.
// O(1): the counter moves in newProc and doExit, the only transitions
// in or out of the live states.
func (k *Kernel) liveCount() int { return k.nlive }

// DebugFaults, when set, prints a diagnostic line for every fatal
// signal delivered to a process (PC/SP/FP and the faulting cause) —
// the simulator's analogue of a kernel "pid N: signal 11" console
// message. Intended for debugging SM32 programs and tests.
var DebugFaults bool

// ErrDeadlock is returned by Run when live processes remain but none is
// runnable.
var ErrDeadlock = errors.New("kern: deadlock: live processes but none runnable")

// Run schedules processes until all have exited, a deadlock is
// detected, or maxCycles elapses (0 = no limit). It is the simulator's
// main loop.
func (k *Kernel) Run(maxCycles uint64) error {
	start := k.Clk.Cycles()
	for {
		if maxCycles != 0 && k.Clk.Cycles()-start >= maxCycles {
			return fmt.Errorf("kern: cycle budget (%d) exhausted", maxCycles)
		}
		p := k.pickNext()
		if p == nil {
			if k.liveCount() == 0 {
				return nil
			}
			return ErrDeadlock
		}
		if err := k.dispatch(p); err != nil {
			return err
		}
	}
}

// RunUntil schedules until pred returns true (checked between
// dispatches), for tests that want to stop at a condition.
func (k *Kernel) RunUntil(pred func() bool, maxCycles uint64) error {
	start := k.Clk.Cycles()
	for !pred() {
		if maxCycles != 0 && k.Clk.Cycles()-start >= maxCycles {
			return fmt.Errorf("kern: cycle budget (%d) exhausted", maxCycles)
		}
		p := k.pickNext()
		if p == nil {
			if k.liveCount() == 0 {
				return fmt.Errorf("kern: all processes exited before condition")
			}
			return ErrDeadlock
		}
		if err := k.dispatch(p); err != nil {
			return err
		}
	}
	return nil
}

// dispatch runs p until it blocks, exits, or is preempted.
func (k *Kernel) dispatch(p *Proc) error {
	if k.lastRun != p {
		k.Clk.Advance(k.Costs.ContextSwitch)
		k.ContextSwitches++
	} else {
		k.Clk.Advance(k.Costs.SchedPick)
	}
	k.lastRun = p
	k.cur = p
	k.preempt = false
	p.State = StateRunning
	defer func() {
		k.cur = nil
		if p.State == StateRunning {
			// Fell off the slice: back to the queue.
			k.ready(p)
		}
		k.recycle(p)
	}()

	if p.IsNative() {
		return k.dispatchNative(p)
	}
	return k.dispatchSM32(p)
}

func (k *Kernel) dispatchSM32(p *Proc) error {
	m := &p.machine

	// Retry a syscall that blocked earlier: arguments are still on the
	// user stack, PC already past the TRAP.
	if p.pending {
		if done := k.serviceTrap(p, p.pendingNo); !done {
			return nil // still blocked
		}
		p.pending = false
		if p.State != StateRunning {
			return nil
		}
	}

	// Exec ends a run at every tick it fires, so the loop sees k.preempt
	// after the same instruction as when it stepped one at a time. A
	// tick the retried syscall fired has set k.preempt already: the
	// process runs one more instruction, then yields.
	for steps := 0; steps < k.MaxStepsPerSlice; {
		max := k.MaxStepsPerSlice - steps
		if k.preempt {
			max = 1
		}
		n, stop, err := m.Exec(&p.CPU, max)
		steps += n
		if err != nil {
			// Memory fault or illegal instruction: fatal signal.
			sig := SIGSEGV
			if !errors.Is(err, vm.ErrNoMapping) && !errors.Is(err, vm.ErrProtection) {
				sig = SIGILL
			}
			k.fatalSignal(p, sig, err)
			return nil
		}
		switch stop.Kind {
		case cpu.StopHalt:
			k.doExit(p, int(p.CPU.RV))
			return nil
		case cpu.StopTrap:
			if done := k.serviceTrap(p, stop.TrapNo); !done {
				p.pending, p.pendingNo = true, stop.TrapNo
				return nil // blocked
			}
			if p.State != StateRunning {
				return nil // exited or switched away
			}
		}
		if k.preempt {
			return nil
		}
	}
	return nil
}

// serviceTrap executes syscall no for p. It returns false if the
// syscall blocked (the caller must retry on wakeup).
func (k *Kernel) serviceTrap(p *Proc, no uint32) bool {
	k.Clk.Advance(k.Costs.Trap + k.Costs.SyscallDemux)
	k.SyscallCount++
	e := k.Sysent(no)
	if e.Fn == nil {
		nosys := int32(ENOSYS)
		p.CPU.RV = uint32(-nosys)
		k.Clk.Advance(k.Costs.Trap)
		return true
	}
	// Read the declared argument words off the user stack, as OpenBSD
	// copies in sy_argsize bytes. A word past the stack top is unmapped
	// and reads as zero.
	args := p.args[:e.NArgs]
	if n := p.Space.ProbeWords(p.CPU.SP, args); n < len(args) {
		clear(args[n:])
		k.ArgFaults++
	}
	res := e.Fn(k, p, args)
	if res.BlockOn != nil {
		k.sleep(p, res.BlockOn)
		return false
	}
	if res.Err != 0 {
		p.CPU.RV = uint32(-res.Err)
	} else {
		p.CPU.RV = res.Val
	}
	k.Clk.Advance(k.Costs.Trap) // kernel exit
	return true
}

func (k *Kernel) sleep(p *Proc, q *WaitQ) {
	p.State = StateSleeping
	p.sleepOn = q
	if q.waiters == nil {
		q.waiters = q.one[:0]
	}
	q.waiters = append(q.waiters, p)
}

// fatalSignal kills p with sig, dumping core unless forbidden. Paper
// section 3.1 item 3: "Processes no longer generate a core image when
// they crash. Certainly no Handle process should!" — in the simulator
// ordinary processes still dump core so tests can verify that handles
// specifically do not.
func (k *Kernel) fatalSignal(p *Proc, sig int, cause error) {
	if DebugFaults {
		fmt.Printf("FAULT pid=%d name=%s sig=%d cause=%v pc=%#x sp=%#x fp=%#x\n", p.PID, p.Name, sig, cause, p.CPU.PC, p.CPU.SP, p.CPU.FP)
	}
	p.KilledBy = sig
	if !p.NoCoreDump && !p.IsHandle {
		k.Cores[p.PID] = true
	}
	k.doExit(p, 128+sig)
}

// doExit terminates p: zombie state, wake waiting parent, run exit
// hooks (SecModule teardown), release memory.
func (k *Kernel) doExit(p *Proc, status int) {
	if p.State == StateZombie || p.State == StateDead {
		return
	}
	k.unsleep(p)
	p.ExitStatus = status
	p.State = StateZombie
	k.nlive--
	p.Space.UnmapAll()
	p.machine = cpu.Machine{}
	for _, s := range p.fds {
		k.closeSocket(s)
	}
	clear(p.fds)
	for _, h := range k.exitHooks {
		h(k, p)
	}
	if p.native != nil && p.native.g != nil {
		// Release a goroutine waiting in a syscall; it ends via
		// runtime.Goexit.
		p.native.g.stop()
	}
	if p.Parent != nil && p.Parent.State != StateZombie && p.Parent.State != StateDead {
		k.Wakeup(&p.Parent.waitq)
	} else {
		// No parent to reap: discard immediately.
		k.reap(p)
	}
	// p's zombie children are orphans no wait4 can reach any more;
	// discard them too so a long-lived kernel's process table stays
	// bounded under session churn. The list is detached first because
	// reap unlinks each child from it. A live child forgets p, which
	// may be reused, and is discarded when it exits.
	kids := p.children
	p.children = nil
	for _, c := range kids {
		if c.State == StateZombie {
			k.reap(c)
		} else {
			c.Parent = nil
		}
	}
}

// reap discards a terminated process for good: nothing can wait on it
// any longer, so it leaves the process table entirely (PIDs are never
// reused, so lookups of a reaped pid just return nil). The parent's
// children list drops it too, so a long-lived fork+wait parent does
// not retain every reaped child.
func (k *Kernel) reap(p *Proc) {
	p.State = StateDead
	delete(k.procs, p.PID)
	if p.Parent != nil {
		kids := p.Parent.children
		for i, c := range kids {
			if c == p {
				p.Parent.children = append(kids[:i], kids[i+1:]...)
				break
			}
		}
	}
	k.recycle(p)
}

// Kill delivers a fatal signal to pid from the kernel side (used by the
// SecModule layer to tear down handles).
func (k *Kernel) Kill(p *Proc, sig int) {
	if p == nil || p.State == StateZombie || p.State == StateDead {
		return
	}
	p.KilledBy = sig
	k.doExit(p, 128+sig)
}
