package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/clock"
	"repro/internal/cpu"
	"repro/internal/kern"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/vm"
)

// Session is one client/handle attachment to a module. It exists from
// a successful smod_start_session until the client (or handle) dies,
// the module is removed, or the client execs — "the simplest policy is
// to allow access to m for the lifetime of p" (section 3).
type Session struct {
	ID     int
	Module *Module
	Client *kern.Proc
	Handle *kern.Proc

	// CallQ/RetQ are the SysV queues synchronizing the pair
	// (section 4.1: "OpenBSD already comes with the proper kernel
	// resources in the form of SYSV MSG interface").
	CallQ, RetQ int

	// handleReady flips when the handle completes handshake phase 1
	// (smod_session_info); smod_handle_info and smod_call block on it,
	// asleep on handleWait.
	handleReady bool
	handleWait  kern.WaitQ
	// inCall marks a dispatch in flight: the client is blocked inside
	// smod_call waiting for the return message.
	inCall bool

	// creds are the verified credential assertions presented at
	// session start, re-used for per-call policy checks.
	creds []*policy.Assertion

	// Calls counts completed dispatches through this session (the
	// resource-metering hook from the paper's second motivating case).
	Calls uint64
}

// descriptor is the in-client-memory smod_session_descriptor:
// {m_id, cred_ptr, cred_len, flags}, 16 bytes.
const descSize = 16

// sysFind implements sys_smod_find(name, version): return the m_id of
// a registered module.
func (sm *SMod) sysFind(k *kern.Kernel, p *kern.Proc, args []uint32) kern.Sysret {
	name, err := k.CopyInStr(p, args[0])
	if err != nil {
		return kern.Sysret{Err: kern.EFAULT}
	}
	id := sm.Find(name, int(int32(args[1])))
	if id == 0 {
		return kern.Sysret{Err: kern.ENOENT}
	}
	k.Clk.Advance(k.Costs.SyscallSimple)
	if sm.Tracef != nil {
		sm.Tracef("(1) smod_find(%q, %d) by pid %d -> m_id %d", name, int32(args[1]), p.PID, id)
	}
	return kern.Sysret{Val: uint32(id)}
}

// sysAdd implements sys_smod_add(smodinfo, len): userland registration
// of a serialized ModuleSpec (the toolchain path).
func (sm *SMod) sysAdd(k *kern.Kernel, p *kern.Proc, args []uint32) kern.Sysret {
	n := int(args[1])
	if n <= 0 || n > 8<<20 {
		return kern.Sysret{Err: kern.EINVAL}
	}
	blob, err := k.CopyIn(p, args[0], n)
	if err != nil {
		return kern.Sysret{Err: kern.EFAULT}
	}
	spec, err := UnmarshalModuleSpec(blob)
	if err != nil {
		return kern.Sysret{Err: kern.EINVAL}
	}
	m, err := sm.Register(spec)
	if err != nil {
		return kern.Sysret{Err: kern.EEXIST}
	}
	return kern.Sysret{Val: uint32(m.ID)}
}

// sysRemove implements sys_smod_remove(m_id, credential, len): tear the
// module down, provided the caller presents a credential from the
// module's owner that grants the remove operation.
func (sm *SMod) sysRemove(k *kern.Kernel, p *kern.Proc, args []uint32) kern.Sysret {
	m := sm.modules[int(args[0])]
	if m == nil {
		return kern.Sysret{Err: kern.ENOENT}
	}
	if m.Owner == "" {
		return kern.Sysret{Err: kern.EPERM}
	}
	credLen := int(args[2])
	if credLen <= 0 || credLen > 64<<10 {
		return kern.Sysret{Err: kern.EINVAL}
	}
	blob, err := k.CopyIn(p, args[1], credLen)
	if err != nil {
		return kern.Sysret{Err: kern.EFAULT}
	}
	creds, err := sm.verifyCredentials(string(blob))
	if err != nil {
		return kern.Sysret{Err: kern.EACCES}
	}
	// The module owner is root authority for its own removal.
	root := &policy.Assertion{
		Authorizer: policy.PolicyPrincipal,
		Licensees:  &policy.LicenseeExpr{Principal: m.Owner},
	}
	attrs := policy.Attributes{
		"app_domain": "secmodule",
		"operation":  "remove",
		"module":     m.Name,
		"version":    strconv.Itoa(m.Version),
	}
	res, err := policy.Query(append([]*policy.Assertion{root}, creds...),
		p.Cred.Name, attrs, m.valueSet)
	sm.chargePolicy(res)
	if err != nil || res.Index < m.thresholdIdx {
		return kern.Sysret{Err: kern.EACCES}
	}
	sm.Remove(m)
	return kern.Sysret{Val: 0}
}

// sysStartSession implements sys_smod_start_session(descp): the formal
// client request for a module. The kernel verifies the credential
// against the module's policy and, if it checks out, "forcibly forks
// the child process, creates a small, secret heap/stack segment for the
// handle, and executes the function smod_std_handle(), using the secret
// stack" (Figure 1 step 2).
func (sm *SMod) sysStartSession(k *kern.Kernel, p *kern.Proc, args []uint32) kern.Sysret {
	var descBuf [descSize]byte
	if err := k.CopyInto(p, args[0], descBuf[:]); err != nil {
		return kern.Sysret{Err: kern.EFAULT}
	}
	desc := descBuf[:]
	mid := int(le32at(desc, 0))
	credPtr := le32at(desc, 4)
	credLen := int(le32at(desc, 8))
	m := sm.modules[mid]
	if m == nil {
		return kern.Sysret{Err: kern.ENOENT}
	}
	if sm.sessions[sessKey{p.PID, mid}] != nil {
		return kern.Sysret{Err: kern.EBUSY}
	}

	var creds []*policy.Assertion
	if credLen > 0 {
		if credLen > 64<<10 {
			return kern.Sysret{Err: kern.EINVAL}
		}
		blob, err := k.CopyIn(p, credPtr, credLen)
		if err != nil {
			return kern.Sysret{Err: kern.EFAULT}
		}
		creds, err = sm.verifyCredentials(string(blob))
		if err != nil {
			return kern.Sysret{Err: kern.EACCES}
		}
	}
	if err := sm.checkPolicy(m, p, creds, "session", nil); err != nil {
		return kern.Sysret{Err: errnoFromErr(err)}
	}

	s, err := sm.openSession(p, m)
	if err != nil {
		return kern.Sysret{Err: kern.ENOMEM}
	}
	s.creds = creds
	if sm.Tracef != nil {
		sm.Tracef("(2) smod_start_session(%s) by pid %d: credentials pass; forcibly forked handle pid %d on secret stack %#x",
			m.Name, p.PID, s.Handle.PID, uint32(secretStack))
	}
	return kern.Sysret{Val: uint32(s.ID)}
}

// verifyCredentials parses a credential blob (assertions separated by
// lines containing only "---") and verifies every signature against the
// kernel policy keystore, charging HMAC cycles.
func (sm *SMod) verifyCredentials(blob string) ([]*policy.Assertion, error) {
	var out []*policy.Assertion
	for _, block := range strings.Split(blob, "\n---\n") {
		if strings.TrimSpace(block) == "" {
			continue
		}
		a, err := policy.ParseAssertion(block)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	n, err := sm.PolicyKeys.VerifyAll(out)
	sm.kern.Clk.Advance(uint64(n) * sm.kern.Costs.HMACPerByte)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkPolicy runs the KeyNote compliance query for one operation by
// client p on module m and charges cycles in proportion to the number
// of conditions evaluated.
// The attribute set always carries app_domain/operation/module/version/
// uid/client plus "now" (simulated seconds since boot, for licensing
// expiry conditions); extra adds per-operation attributes such as the
// session call count for metering policies.
//
// The attribute map, the assertion list and the query's own scratch
// are the SMod's, reused from one check to the next.
func (sm *SMod) checkPolicy(m *Module, p *kern.Proc, creds []*policy.Assertion, op string, extra policy.Attributes) error {
	ps := &sm.policy
	if ps.attrs == nil {
		ps.attrs = policy.Attributes{}
	}
	attrs := ps.attrs
	clear(attrs)
	attrs["app_domain"] = "secmodule"
	attrs["operation"] = op
	attrs["module"] = m.Name
	attrs["version"] = strconv.Itoa(m.Version)
	attrs["uid"] = strconv.Itoa(p.Cred.UID)
	attrs["client"] = p.Cred.Name
	attrs["now"] = strconv.FormatUint(sm.kern.Clk.Cycles()/(clock.CyclesPerMicrosecond*1_000_000), 10)
	for k, v := range extra {
		attrs[k] = v
	}
	ps.all = append(append(ps.all[:0], m.policyAsserts...), creds...)
	res, err := ps.querier.Query(ps.all, p.Cred.Name, attrs, m.valueSet)
	clear(ps.all)
	sm.chargePolicy(res)
	sm.PolicyChecks++
	if err != nil {
		return fmt.Errorf("%w: %v", ErrDenied, err)
	}
	if res.Index < m.thresholdIdx {
		return fmt.Errorf("%w: compliance %q below threshold %q",
			ErrDenied, res.Value, m.valueSet[m.thresholdIdx])
	}
	return nil
}

func (sm *SMod) chargePolicy(res policy.Result) {
	sm.kern.Clk.Advance(sm.kern.Costs.PolicyBase +
		uint64(res.ConditionsEvaluated)*sm.kern.Costs.PolicyPerCond)
}

// openSession builds the handle process for (client, m): forcible fork,
// secret segment, module text (decrypted if need be) and module data
// mapped handle-only, context aimed at the receive stub on the secret
// stack. The Figure 2 layout comes to exist here.
func (sm *SMod) openSession(client *kern.Proc, m *Module) (*Session, error) {
	k := sm.kern
	handle := k.ForkInto(client, handleName(client, m))
	handle.IsHandle = true
	handle.NoCoreDump = true
	handle.NoTrace = true
	handle.Pair = client
	client.Pair = handle
	client.NoTrace = true // tracing either end would expose the protocol

	hs := handle.Space
	if _, err := hs.Map(kern.SecretBase, kern.SecretSize, vm.ProtRW, "secret"); err != nil {
		return nil, err
	}

	// Module text, decrypted only here, only for the handle.
	text, err := sm.decryptForHandle(m)
	if err != nil {
		return nil, err
	}
	tbase := mem.PageAlign(m.Image.TextBase)
	tsize := mem.PageRoundUp(m.Image.TextBase+uint32(len(text))) - tbase
	if _, err := hs.Map(tbase, tsize, vm.ProtRX, "module-text"); err != nil {
		return nil, err
	}
	if err := kern.WriteText(hs, m.Image.TextBase, text); err != nil {
		return nil, err
	}

	// Module-private data + bss (outside the share range: module state
	// the client must not be able to corrupt).
	bssEnd := m.Image.BSSBase + m.Image.BSSSize
	dataEnd := m.Image.DataBase + uint32(len(m.Image.Data))
	if bssEnd < dataEnd {
		bssEnd = dataEnd
	}
	dsize := mem.PageRoundUp(bssEnd) - m.Image.DataBase
	if dsize == 0 {
		dsize = mem.PageSize
	}
	if _, err := hs.Map(m.Image.DataBase, dsize, vm.ProtRW, "module-data"); err != nil {
		return nil, err
	}
	if len(m.Image.Data) > 0 {
		if err := hs.WriteBytes(m.Image.DataBase, m.Image.Data); err != nil {
			return nil, err
		}
	}

	// Queues, announced to the handle through the secret segment.
	callq := k.AllocMsgq()
	retq := k.AllocMsgq()
	if err := hs.Write32(secretCallQ, uint32(callq)); err != nil {
		return nil, err
	}
	if err := hs.Write32(secretRetQ, uint32(retq)); err != nil {
		return nil, err
	}

	handle.CPU = cpu.Context{PC: m.Image.Entry, SP: secretStack, FP: secretStack}
	k.Ready(handle)

	sm.nextSessionID++
	s := &Session{
		ID:     sm.nextSessionID,
		Module: m,
		Client: client,
		Handle: handle,
		CallQ:  callq,
		RetQ:   retq,
	}
	sm.sessions[sessKey{client.PID, m.ID}] = s
	sm.byHandlePID[handle.PID] = s
	sm.SessionsOpened++
	return s, nil
}

// sysSessionInfo is phase 1 of the handshake, callable only by a handle
// (Figure 1 step 3): it "forcibly unmaps the entire data, heap, and
// stack segment of the handle process and forces it to share the memory
// pages from the same address range from the client process."
func (sm *SMod) sysSessionInfo(k *kern.Kernel, p *kern.Proc, args []uint32) kern.Sysret {
	s := sm.byHandlePID[p.PID]
	if s == nil {
		return kern.Sysret{Err: kern.EPERM}
	}
	if s.handleReady {
		return kern.Sysret{Err: kern.EBUSY}
	}
	if err := vm.ForceShareSpaces(p.Space, s.Client.Space, kern.ShareStart, kern.ShareEnd); err != nil {
		return kern.Sysret{Err: kern.ENOMEM}
	}
	s.handleReady = true
	k.Wakeup(&s.handleWait)
	if sm.Tracef != nil {
		sm.Tracef("(3) smod_session_info by handle pid %d: data/heap/stack [%#x,%#x) force-shared from client pid %d",
			p.PID, uint32(kern.ShareStart), uint32(kern.ShareEnd), s.Client.PID)
	}
	return kern.Sysret{Val: 0}
}

// sysHandleInfo is phase 2 of the handshake, callable only by the
// client (Figure 1 step 4): it "completes the internal synchronization
// data structures", blocking until the handle has finished phase 1.
func (sm *SMod) sysHandleInfo(k *kern.Kernel, p *kern.Proc, args []uint32) kern.Sysret {
	s := sm.sessions[sessKey{p.PID, int(args[0])}]
	if s == nil {
		return kern.Sysret{Err: kern.EINVAL}
	}
	if !s.handleReady {
		return kern.Sysret{BlockOn: &s.handleWait}
	}
	if sm.Tracef != nil {
		sm.Tracef("(4) smod_handle_info by client pid %d: handshake with handle pid %d complete; entering smod_client_main",
			p.PID, s.Handle.PID)
	}
	return kern.Sysret{Val: 0}
}

func le32at(b []byte, off int) uint32 {
	return uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
}
