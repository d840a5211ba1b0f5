package rpc

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/xdr"
)

// Handler is one RPC procedure implementation: it decodes its
// XDR-encoded arguments and appends its XDR-encoded results to res,
// which already holds the reply header. args points into the
// transport's record buffer and is valid only during the call, so a
// handler that keeps any of it must copy it. A non-nil error becomes a
// SYSTEM_ERR accepted reply, and whatever the handler appended is
// discarded.
type Handler func(args []byte, res *xdr.Encoder) error

// procKey identifies one registered procedure.
type procKey struct {
	prog, vers, proc uint32
}

// Server dispatches RPC calls to registered programs. It is transport
// independent: transports deliver raw call bytes to Dispatch and send
// back the reply it appends to their encoder.
type Server struct {
	mu    sync.RWMutex
	procs map[procKey]Handler
	// versions tracks registered version ranges per program for
	// PROG_MISMATCH replies.
	versions map[uint32][]uint32
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{procs: map[procKey]Handler{}, versions: map[uint32][]uint32{}}
}

// Register installs a handler for (prog, vers, proc). Procedure 0 is
// reserved for the RFC's null procedure, which the server answers
// automatically; registering it explicitly overrides that.
func (s *Server) Register(prog, vers, proc uint32, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.procs[procKey{prog, vers, proc}] = h
	vs := s.versions[prog]
	for _, v := range vs {
		if v == vers {
			return
		}
	}
	s.versions[prog] = append(vs, vers)
	sort.Slice(s.versions[prog], func(i, j int) bool { return s.versions[prog][i] < s.versions[prog][j] })
}

// Dispatch decodes one call message and appends the reply to reply.
// It never appends an empty reply: malformed calls that still carry an
// XID get GARBAGE_ARGS or the appropriate mismatch; calls too broken
// to decode an XID from return an error and append nothing (ServeTCP
// ends the connection, and the simulated server drops the datagram,
// as real servers do).
func (s *Server) Dispatch(callBytes []byte, reply *xdr.Encoder) error {
	var call CallMsg
	err := call.Decode(callBytes)
	if err == ErrRPCMismatch {
		// We can still salvage the XID: it is the first of the three
		// words decoded before the version check failed.
		xid := uint32(callBytes[0])<<24 | uint32(callBytes[1])<<16 |
			uint32(callBytes[2])<<8 | uint32(callBytes[3])
		r := ReplyMsg{XID: xid, Status: ReplyDenied, RejectStat: RejectRPCMismatch,
			MismatchLow: Version, MismatchHigh: Version}
		r.Encode(reply)
		return nil
	}
	if err != nil {
		return fmt.Errorf("rpc: undecodable call: %w", err)
	}

	s.mu.RLock()
	h, ok := s.procs[procKey{call.Prog, call.Vers, call.Proc}]
	versions := s.versions[call.Prog]
	s.mu.RUnlock()

	r := ReplyMsg{XID: call.XID, Status: ReplyAccepted}
	switch {
	case ok:
		start := reply.Len()
		r.AcceptStat = AcceptSuccess
		r.Encode(reply)
		if h(call.Args, reply) != nil {
			reply.Truncate(start)
			r.AcceptStat = AcceptSystemErr
			r.Encode(reply)
		}
		return nil
	case call.Proc == 0 && len(versions) > 0 && hasVersion(versions, call.Vers):
		// Null procedure: succeed with empty results.
		r.AcceptStat = AcceptSuccess
	case len(versions) == 0:
		r.AcceptStat = AcceptProgUnavail
	case !hasVersion(versions, call.Vers):
		r.AcceptStat = AcceptProgMismatch
		r.MismatchLow = versions[0]
		r.MismatchHigh = versions[len(versions)-1]
	default:
		r.AcceptStat = AcceptProcUnavail
	}
	r.Encode(reply)
	return nil
}

func hasVersion(vs []uint32, v uint32) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}
