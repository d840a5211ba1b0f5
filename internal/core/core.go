// Package core implements SecModule, the paper's contribution: a
// framework that puts library and module access behind session-managed
// access control. A client process p never maps the text of a
// protected module m; instead the kernel spawns a handle co-process h
// holding the (possibly encrypted-at-rest) module text, force-shares
// p's entire data/heap/stack address range into h, and dispatches every
// protected call through the smod_call kernel call. Arguments travel on
// the shared stack exactly like a normal function call; the handle runs
// its receive stub on a secret stack the client can never map.
//
// The package provides, mapping to the paper:
//
//   - the seven new kernel calls of Figure 4 (Attach registers them as
//     syscalls 301..320 on a kern.Kernel),
//   - the module registry and registration toolchain (section 4.2),
//   - session setup with the Figure 1 handshake and the Figure 2
//     address-space layout,
//   - the Figure 3 / Figure 5 stub pair: generated per-function client
//     stubs (smod_stub_call) and the handle's receive loop
//     (smod_std_handle + smod_stub_receive) in SM32 assembly,
//   - KeyNote-backed session policy checks (sections 2, 4.4) and the
//     at-rest encryption path (section 4.1) via internal/policy and
//     internal/modcrypt,
//   - the section 4.3 special-function behaviour for execve, fork,
//     getpid, signals and wait (partly here, partly in internal/kern).
package core

import (
	"errors"
	"strconv"

	"repro/internal/kern"
	"repro/internal/modcrypt"
	"repro/internal/policy"
)

// The Figure 4 syscall numbers.
const (
	SysFindNo         = 301
	SysSessionInfoNo  = 303
	SysHandleInfoNo   = 304
	SysAddNo          = 305
	SysRemoveNo       = 306
	SysCallNo         = 307
	SysStartSessionNo = 320
)

// Handle address-space constants (Figure 2). The secret region layout:
//
//	SecretBase+0x00  callq id     (written by the kernel at session start)
//	SecretBase+0x04  retq id
//	SecretBase+0x08  saved secret SP (receive stub scratch)
//	SecretBase+0x10  call message buffer (mtype + 20-byte dispatch record)
//	SecretBase+0x30  return message buffer (mtype + 4-byte result)
//	top half         the handle's secret stack (grows down from SecretBase+SecretSize)
const (
	secretCallQ   = kern.SecretBase + 0x00
	secretRetQ    = kern.SecretBase + 0x04
	secretSavedSP = kern.SecretBase + 0x08
	secretCallBuf = kern.SecretBase + 0x10
	secretRetBuf  = kern.SecretBase + 0x30
	secretStack   = kern.SecretBase + kern.SecretSize
)

// Dispatch-record layout inside the call message payload (offsets after
// the 4-byte mtype): function address, shared-stack SP, and the three
// client stack words the called function will clobber and the receive
// stub must restore (Figure 3 step 4).
const (
	recFuncAddr = 0  // absolute address of f_i in handle text
	recSharedSP = 4  // client SP + 12: points at arg1 on the shared stack
	recRetAddr  = 8  // client's return address (restored at sharedSP-4)
	recFuncID   = 12 // restored at sharedSP-8
	recModID    = 16 // restored at sharedSP-12
	recSize     = 20
)

// Message types on the call/return queues.
const (
	mtypeCall = 1
	mtypeRet  = 2
)

// Errors returned by the registration API.
var (
	ErrNoModule    = errors.New("core: no such module")
	ErrDenied      = errors.New("core: policy denies access")
	ErrBadFuncID   = errors.New("core: function id out of range")
	ErrNotAttached = errors.New("core: process has no session for module")
)

// SMod is the SecModule kernel layer attached to one simulated kernel.
type SMod struct {
	kern *kern.Kernel

	// PolicyKeys verifies credential signatures; ModKeys holds the
	// AES keys of encrypted modules. Both live "in kernel space".
	PolicyKeys *policy.Keystore
	ModKeys    *modcrypt.Keystore

	modules   map[int]*Module
	byNameVer map[nameVer]int
	nextMID   int
	// mids lists the registered module IDs in increasing order: a
	// client's sessions are found by looking each up in sessions.
	mids []int

	sessions      map[sessKey]*Session
	byHandlePID   map[int]*Session
	nextSessionID int

	// policy is checkPolicy's scratch memory, reused by every check on
	// this kernel.
	policy policyScratch

	// Stats for benchmarks and tests.
	Calls          uint64 // completed smod_call dispatches
	SessionsOpened uint64
	PolicyChecks   uint64

	// Tracef, when non-nil, receives one line per SecModule event
	// (cmd/smodrun -trace uses it to print the Figure 1 sequence).
	Tracef func(format string, args ...any)
	// TraceCalls extends tracing to the smod_call hot path.
	TraceCalls bool
}

// tracef logs a SecModule event when tracing is enabled.
func (sm *SMod) tracef(format string, args ...any) {
	if sm.Tracef != nil {
		sm.Tracef(format, args...)
	}
}

type nameVer struct {
	name    string
	version int
}

type sessKey struct {
	clientPID int
	mid       int
}

// policyScratch is what checkPolicy reuses from one check to the next:
// the attribute map, the assertion list and the query's scratch.
type policyScratch struct {
	querier policy.Querier
	attrs   policy.Attributes
	all     []*policy.Assertion
}

// Attach creates the SecModule layer on k and registers the Figure 4
// syscalls plus the exit/exec/fork hooks for the section 4.3 special
// behaviour.
func Attach(k *kern.Kernel) *SMod {
	sm := &SMod{
		kern:        k,
		PolicyKeys:  policy.NewKeystore(),
		ModKeys:     modcrypt.NewKeystore(),
		modules:     map[int]*Module{},
		byNameVer:   map[nameVer]int{},
		sessions:    map[sessKey]*Session{},
		byHandlePID: map[int]*Session{},
	}
	k.RegisterSyscall(SysFindNo, "smod_find", sm.sysFind)
	k.RegisterSyscall(SysSessionInfoNo, "smod_session_info", sm.sysSessionInfo)
	k.RegisterSyscall(SysHandleInfoNo, "smod_handle_info", sm.sysHandleInfo)
	k.RegisterSyscall(SysAddNo, "smod_add", sm.sysAdd)
	k.RegisterSyscall(SysRemoveNo, "smod_remove", sm.sysRemove)
	k.RegisterSyscall(SysCallNo, "smod_call", sm.sysCall)
	k.RegisterSyscall(SysStartSessionNo, "smod_start_session", sm.sysStartSession)

	k.OnExit(sm.onExit)
	k.OnExec(sm.onExec)
	k.OnFork(sm.onFork)
	return sm
}

// Kernel returns the kernel this layer is attached to.
func (sm *SMod) Kernel() *kern.Kernel { return sm.kern }

// Module returns the registered module with id, or nil.
func (sm *SMod) Module(id int) *Module { return sm.modules[id] }

// Find returns the id of the registered module (name, version), or 0.
func (sm *SMod) Find(name string, version int) int {
	return sm.byNameVer[nameVer{name, version}]
}

// SessionFor returns the active session of clientPID for module mid.
func (sm *SMod) SessionFor(clientPID, mid int) *Session {
	return sm.sessions[sessKey{clientPID, mid}]
}

// SessionsOf returns all active sessions whose client is pid, in
// module-ID order.
func (sm *SMod) SessionsOf(pid int) []*Session {
	var out []*Session
	for _, mid := range sm.mids {
		if s := sm.sessions[sessKey{pid, mid}]; s != nil {
			out = append(out, s)
		}
	}
	return out
}

// teardownClient tears down every session of client pid, in module-ID
// order.
func (sm *SMod) teardownClient(pid int) {
	for _, mid := range sm.mids {
		if s := sm.sessions[sessKey{pid, mid}]; s != nil {
			sm.teardown(s, false)
		}
	}
}

func (sm *SMod) allocMID() int {
	sm.nextMID++
	return sm.nextMID
}

// onExit implements teardown: a client's death kills its handles and
// sessions ("the simplest policy is to allow access to m for the
// lifetime of p"); a handle's death orphans its client, which is
// killed, since its protected library no longer exists.
func (sm *SMod) onExit(k *kern.Kernel, p *kern.Proc) {
	if s := sm.byHandlePID[p.PID]; s != nil {
		sm.teardown(s, true)
		return
	}
	sm.teardownClient(p.PID)
}

// onExec implements the section 4.3 execve behaviour: "first detach the
// requesting client process from the SecModule system, kill the
// associated handle process, and then run sys_execve as per normal."
func (sm *SMod) onExec(k *kern.Kernel, p *kern.Proc) {
	sm.teardownClient(p.PID)
}

// onFork implements the section 4.3 fork behaviour: the child gets its
// own handle for every module the parent was attached to ("Multiple
// clients should not share the handle, because a many-to-one mapping of
// clients to a single handle introduces a performance bottleneck").
func (sm *SMod) onFork(k *kern.Kernel, parent, child *kern.Proc) {
	for _, mid := range sm.mids {
		s := sm.sessions[sessKey{parent.PID, mid}]
		if s == nil {
			continue
		}
		if _, err := sm.openSession(child, s.Module); err != nil {
			// A child that cannot get its handle is killed rather than
			// left with dangling stubs.
			k.Kill(child, kern.SIGKILL)
			return
		}
	}
}

// teardown dismantles a session: the handle is killed (unless it is the
// process already exiting), queues are freed, and — when the handle
// died first — the client is killed too, because its protected library
// vanished beneath it.
func (sm *SMod) teardown(s *Session, handleDied bool) {
	key := sessKey{s.Client.PID, s.Module.ID}
	if sm.sessions[key] != s {
		return // already torn down
	}
	delete(sm.sessions, key)
	delete(sm.byHandlePID, s.Handle.PID)
	sm.kern.FreeMsgq(s.CallQ)
	sm.kern.FreeMsgq(s.RetQ)
	if handleDied {
		sm.kern.Kill(s.Client, kern.SIGKILL)
	} else {
		sm.kern.Kill(s.Handle, kern.SIGKILL)
	}
}

// errnoFromErr maps layer errors onto kernel errnos.
func errnoFromErr(err error) int {
	switch {
	case errors.Is(err, ErrNoModule):
		return kern.ENOENT
	case errors.Is(err, ErrDenied):
		return kern.EACCES
	case errors.Is(err, ErrBadFuncID), errors.Is(err, ErrNotAttached):
		return kern.EINVAL
	default:
		return kern.EPERM
	}
}

// handleName names a handle process after its client and module:
// "<client>-handle[<module>.<version>]".
func handleName(client *kern.Proc, m *Module) string {
	return client.Name + "-handle[" + m.Name + "." + strconv.Itoa(m.Version) + "]"
}
