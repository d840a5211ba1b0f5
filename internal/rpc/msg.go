// Package rpc implements ONC Remote Procedure Call version 2
// (RFC 1831), the baseline the paper measures SecModule against: "We
// compare against an identical no-op function implemented as a locally
// running RPC service" (section 4.5). It provides the call/reply
// message codec, client and server endpoints, and one transport over
// the host network: record-marked TCP on real sockets. The other
// endpoints live in simrpc.go: a client/server pair running as
// simulated processes inside the internal/kern simulator, over its
// loopback datagram sockets, which is what the Figure 8 RPC row
// measures.
package rpc

import (
	"errors"
	"fmt"

	"repro/internal/xdr"
)

// RPC protocol version (RFC 1831).
const Version = 2

// Message types.
const (
	MsgCall  = 0
	MsgReply = 1
)

// Reply status.
const (
	ReplyAccepted = 0
	ReplyDenied   = 1
)

// Accept status values.
const (
	AcceptSuccess      = 0
	AcceptProgUnavail  = 1
	AcceptProgMismatch = 2
	AcceptProcUnavail  = 3
	AcceptGarbageArgs  = 4
	AcceptSystemErr    = 5
)

// Reject status values.
const (
	RejectRPCMismatch = 0
	RejectAuthError   = 1
)

// Auth flavors (only AUTH_NONE is used, as a local no-op service needs
// no authentication; the opaque body is carried faithfully regardless).
const (
	AuthNone = 0
	AuthSys  = 1
)

// OpaqueAuth is an authentication field: flavor plus opaque body.
type OpaqueAuth struct {
	Flavor uint32
	Body   []byte
}

func (a OpaqueAuth) encode(e *xdr.Encoder) {
	e.PutUint32(a.Flavor)
	e.PutOpaque(a.Body)
}

func decodeAuth(d *xdr.Decoder) (OpaqueAuth, error) {
	var a OpaqueAuth
	var err error
	if a.Flavor, err = d.Uint32(); err != nil {
		return a, err
	}
	if a.Body, err = d.Opaque(); err != nil {
		return a, err
	}
	if len(a.Body) > 400 {
		return a, fmt.Errorf("rpc: auth body %d bytes exceeds RFC limit", len(a.Body))
	}
	return a, nil
}

// The codec works in place. Encode appends a message to the caller's
// encoder, so one encoder per connection serves every message; Decode
// fills the caller's struct, and the byte fields it sets (Args,
// Results, the auth bodies) point into the decoded buffer instead of
// copying it. They are valid only as long as that buffer is.

// CallMsg is an RPC call: header plus procedure arguments (already
// XDR-encoded by the caller).
type CallMsg struct {
	XID  uint32
	Prog uint32
	Vers uint32
	Proc uint32
	Cred OpaqueAuth
	Verf OpaqueAuth
	Args []byte
}

// ReplyMsg is an RPC reply. For accepted replies Results carries the
// XDR-encoded procedure results; for denied replies the reject fields
// are set.
type ReplyMsg struct {
	XID        uint32
	Status     uint32 // ReplyAccepted or ReplyDenied
	Verf       OpaqueAuth
	AcceptStat uint32
	// MismatchLow/High are set for AcceptProgMismatch and RejectRPCMismatch.
	MismatchLow, MismatchHigh uint32
	RejectStat                uint32
	AuthStat                  uint32
	Results                   []byte
}

// Encode appends the call message to e: the header, then Args
// verbatim. A caller that encodes its arguments itself leaves Args nil
// and appends them to e after the header.
func (c *CallMsg) Encode(e *xdr.Encoder) {
	e.PutUint32(c.XID)
	e.PutUint32(MsgCall)
	e.PutUint32(Version)
	e.PutUint32(c.Prog)
	e.PutUint32(c.Vers)
	e.PutUint32(c.Proc)
	c.Cred.encode(e)
	c.Verf.encode(e)
	e.PutRaw(c.Args)
}

// Decode parses a call message from b into c. Args and the auth bodies
// point into b.
func (c *CallMsg) Decode(b []byte) error {
	*c = CallMsg{}
	d := xdr.NewDecoder(b)
	var err error
	if c.XID, err = d.Uint32(); err != nil {
		return err
	}
	mt, err := d.Uint32()
	if err != nil {
		return err
	}
	if mt != MsgCall {
		return fmt.Errorf("rpc: message type %d is not a call", mt)
	}
	rpcvers, err := d.Uint32()
	if err != nil {
		return err
	}
	if rpcvers != Version {
		return ErrRPCMismatch
	}
	if c.Prog, err = d.Uint32(); err != nil {
		return err
	}
	if c.Vers, err = d.Uint32(); err != nil {
		return err
	}
	if c.Proc, err = d.Uint32(); err != nil {
		return err
	}
	if c.Cred, err = decodeAuth(d); err != nil {
		return err
	}
	if c.Verf, err = decodeAuth(d); err != nil {
		return err
	}
	c.Args = b[len(b)-d.Remaining():]
	return nil
}

// ErrRPCMismatch marks a call with an unsupported RPC version.
var ErrRPCMismatch = errors.New("rpc: version mismatch")

// Encode appends the reply message to e, with Results verbatim after
// an accepted-success header. A server that encodes results itself
// leaves Results nil and appends them to e after the header.
func (r *ReplyMsg) Encode(e *xdr.Encoder) {
	e.PutUint32(r.XID)
	e.PutUint32(MsgReply)
	e.PutUint32(r.Status)
	switch r.Status {
	case ReplyAccepted:
		r.Verf.encode(e)
		e.PutUint32(r.AcceptStat)
		switch r.AcceptStat {
		case AcceptProgMismatch:
			e.PutUint32(r.MismatchLow)
			e.PutUint32(r.MismatchHigh)
		case AcceptSuccess:
			e.PutRaw(r.Results)
		}
	case ReplyDenied:
		e.PutUint32(r.RejectStat)
		switch r.RejectStat {
		case RejectRPCMismatch:
			e.PutUint32(r.MismatchLow)
			e.PutUint32(r.MismatchHigh)
		case RejectAuthError:
			e.PutUint32(r.AuthStat)
		}
	}
}

// Decode parses a reply message from b into r. Results and the
// verifier body point into b.
func (r *ReplyMsg) Decode(b []byte) error {
	*r = ReplyMsg{}
	d := xdr.NewDecoder(b)
	var err error
	if r.XID, err = d.Uint32(); err != nil {
		return err
	}
	mt, err := d.Uint32()
	if err != nil {
		return err
	}
	if mt != MsgReply {
		return fmt.Errorf("rpc: message type %d is not a reply", mt)
	}
	if r.Status, err = d.Uint32(); err != nil {
		return err
	}
	switch r.Status {
	case ReplyAccepted:
		if r.Verf, err = decodeAuth(d); err != nil {
			return err
		}
		if r.AcceptStat, err = d.Uint32(); err != nil {
			return err
		}
		switch r.AcceptStat {
		case AcceptProgMismatch:
			if r.MismatchLow, err = d.Uint32(); err != nil {
				return err
			}
			if r.MismatchHigh, err = d.Uint32(); err != nil {
				return err
			}
		case AcceptSuccess:
			r.Results = b[len(b)-d.Remaining():]
		}
	case ReplyDenied:
		if r.RejectStat, err = d.Uint32(); err != nil {
			return err
		}
		switch r.RejectStat {
		case RejectRPCMismatch:
			if r.MismatchLow, err = d.Uint32(); err != nil {
				return err
			}
			if r.MismatchHigh, err = d.Uint32(); err != nil {
				return err
			}
		case RejectAuthError:
			if r.AuthStat, err = d.Uint32(); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("rpc: bad reply status %d", r.Status)
	}
	return nil
}
