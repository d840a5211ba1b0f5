package core

import (
	"strconv"

	"repro/internal/kern"
	"repro/internal/policy"
)

// sysCall implements sys_smod_call, the hot path the paper's Figure 8
// measures. The client stub has pushed funcID then moduleID and
// trapped, so the client stack reads (top down): moduleID, funcID,
// return address, arg1, ... — Figure 3 step 2.
//
// The kernel validates the session and funcID, builds the dispatch
// record (function address, shared-stack SP, and the three client words
// the callee will clobber), sends it down the call queue, and blocks
// the client on the return queue. The handle's receive stub — running
// on its secret stack — picks the record up, executes f_i on the shared
// stack, restores the clobbered words, and sends the result back; the
// retried syscall then completes with the result in RV.
func (sm *SMod) sysCall(k *kern.Kernel, p *kern.Proc, args []uint32) kern.Sysret {
	mid, funcID, retaddr := int(args[0]), args[1], args[2]
	s := sm.sessions[sessKey{p.PID, mid}]
	if s == nil {
		return kern.Sysret{Err: errnoFromErr(ErrNotAttached)}
	}

	if s.inCall {
		// Returning path: the blocked call was woken by the handle's
		// msgsnd on the return queue.
		var ret [4]byte
		n, ok := k.MsgRecvKernel(s.RetQ, mtypeRet, ret[:])
		if !ok {
			return kern.Sysret{BlockOn: k.MsgRToken(s.RetQ)}
		}
		if n < 4 {
			return kern.Sysret{Err: kern.EINVAL}
		}
		s.inCall = false
		s.Calls++
		sm.Calls++
		if sm.TraceCalls {
			sm.tracef("(8) smod_call return to client pid %d: RV=%#x", p.PID, le32at(ret[:], 0))
		}
		return kern.Sysret{Val: le32at(ret[:], 0)}
	}

	// Initial path. A client racing its own handshake (possible after
	// fork gave it a fresh handle) waits for the handle first.
	if !s.handleReady {
		return kern.Sysret{BlockOn: &s.handleWait}
	}

	k.Clk.Advance(k.Costs.SMODValidate + k.Costs.SMODCallOverhead)
	m := s.Module
	if int(funcID) >= len(m.FuncAddrs) {
		return kern.Sysret{Err: errnoFromErr(ErrBadFuncID)}
	}
	if m.Spec.CheckPerCall {
		// Per-call compliance at function granularity — the paper's
		// access question is precisely "whether an entity p ... is
		// allowed to execute some function f_i held secure in the
		// library module m", so the function name and the session call
		// count join the action attribute set.
		extra := policy.Attributes{
			"calls":    strconv.FormatUint(s.Calls, 10),
			"function": m.Funcs[funcID],
		}
		if err := sm.checkPolicy(m, p, s.creds, "call", extra); err != nil {
			return kern.Sysret{Err: errnoFromErr(err)}
		}
	}

	// Build the dispatch record. sharedSP points at arg1: the client
	// stack holds moduleID (SP), funcID (SP+4), return address (SP+8),
	// then the real arguments.
	var rec [recSize]byte
	putLE32(rec[recFuncAddr:], m.FuncAddrs[funcID])
	putLE32(rec[recSharedSP:], p.CPU.SP+12)
	putLE32(rec[recRetAddr:], retaddr)
	putLE32(rec[recFuncID:], funcID)
	putLE32(rec[recModID:], uint32(mid))
	if err := k.MsgSendKernel(s.CallQ, mtypeCall, rec[:]); err != nil {
		return kern.Sysret{Err: kern.EINVAL}
	}
	if sm.TraceCalls {
		sm.tracef("(5-7) smod_call by client pid %d: %s.%s (funcID %d, f_i at %#x) relayed to handle pid %d, sharedSP %#x",
			p.PID, m.Name, m.Funcs[funcID], funcID, m.FuncAddrs[funcID], s.Handle.PID, p.CPU.SP+12)
	}
	s.inCall = true
	return kern.Sysret{BlockOn: k.MsgRToken(s.RetQ)}
}

func putLE32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
