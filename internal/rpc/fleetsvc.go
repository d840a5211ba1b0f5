package rpc

// Fleet service: the wire protocol smodfleetd serves to real network
// clients. Where simrpc measures the paper's local-RPC baseline inside
// the machine simulator, this program runs over the real transports
// (ServeTCP/ServeUDP) and fronts a live fleet: each call names a
// sticky client key, a registered function id, and its arguments, and
// the reply carries the value, the simulated kernel errno, and the
// shard that served it. The service layer stays ignorant of the fleet
// package — the daemon adapts *fleet.Fleet onto FleetBackend — so the
// dependency arrow keeps pointing rpc <- fleet, never back.

import (
	"fmt"

	"repro/internal/xdr"
)

// Fleet program identity.
const (
	FleetProg = 0x20050200
	FleetVers = 1

	// ProcFleetCall: (key string, funcID uint32, args uint32[]) ->
	// (val uint32, errno int32, shard int32).
	ProcFleetCall = 1
	// ProcFleetRelease: (key string) -> (void). Evicts the key's warm
	// sessions fleet-wide.
	ProcFleetRelease = 2
	// ProcFleetFuncID: (name string) -> (ok bool, id uint32). Resolves
	// a registered module function name.
	ProcFleetFuncID = 3
)

// ErrnoOverload is the errno a FleetCall reply carries when the fleet's
// QoS layer shed the call (fleet.ErrOverload): the request was refused
// before execution — over its tenant's admission rate or past the shed
// knee — and is safe to retry. The value sits well above the simulated
// kernel's errno range, so it can never collide with a module errno.
const ErrnoOverload int32 = 75

// ErrnoTooManyArgs is the errno a FleetCall reply carries when the call
// had more argument words than a native call frame holds
// (core.MaxNativeArgs): the fleet refused it before any shard saw it.
// It is E2BIG, as in OpenBSD.
const ErrnoTooManyArgs int32 = 7

// FleetBackend is the slice of the fleet the service needs. Errors
// returned here become RPC system errors on the wire (the transport
// stays up); a nonzero errno is a normal reply.
type FleetBackend interface {
	FleetCall(key string, funcID uint32, args []uint32) (val uint32, errno int32, shard int32, err error)
	FleetRelease(key string) error
	FleetFuncID(name string) (uint32, bool)
}

// RegisterFleetService wires the fleet program onto s. The handlers
// decode into fresh values (the key string and the argument slice), so
// the backend may keep them after the call.
func RegisterFleetService(s *Server, b FleetBackend) {
	s.Register(FleetProg, FleetVers, ProcFleetCall, func(args []byte, res *xdr.Encoder) error {
		d := xdr.NewDecoder(args)
		key, err := d.String()
		if err != nil {
			return err
		}
		funcID, err := d.Uint32()
		if err != nil {
			return err
		}
		fnArgs, err := d.Uint32s()
		if err != nil {
			return err
		}
		val, errno, shard, err := b.FleetCall(key, funcID, fnArgs)
		if err != nil {
			return err
		}
		res.PutUint32(val)
		res.PutInt32(errno)
		res.PutInt32(shard)
		return nil
	})
	s.Register(FleetProg, FleetVers, ProcFleetRelease, func(args []byte, _ *xdr.Encoder) error {
		d := xdr.NewDecoder(args)
		key, err := d.String()
		if err != nil {
			return err
		}
		return b.FleetRelease(key)
	})
	s.Register(FleetProg, FleetVers, ProcFleetFuncID, func(args []byte, res *xdr.Encoder) error {
		d := xdr.NewDecoder(args)
		name, err := d.String()
		if err != nil {
			return err
		}
		id, ok := b.FleetFuncID(name)
		res.PutBool(ok)
		res.PutUint32(id)
		return nil
	})
}

// FleetClient is a typed client for the fleet program over any Client
// transport (TCP, UDP, or in-process pipe). Safe for concurrent use
// exactly when the underlying Client is (TCP and pipe clients are;
// UDP clients are single-flight). Each method encodes its call into
// the client's encoder and decodes the reply in place, under the
// client's lock.
type FleetClient struct {
	C *Client
}

// Call invokes funcID under the sticky session key and returns the
// value, the simulated kernel errno (0 = success), and the serving
// shard.
func (fc *FleetClient) Call(key string, funcID uint32, args ...uint32) (val uint32, errno int32, shard int32, err error) {
	c := fc.C
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.begin(FleetProg, FleetVers, ProcFleetCall)
	e.PutString(key)
	e.PutUint32(funcID)
	e.PutUint32s(args)
	res, err := c.finish()
	if err != nil {
		return 0, 0, 0, err
	}
	d := xdr.NewDecoder(res)
	if val, err = d.Uint32(); err != nil {
		return 0, 0, 0, err
	}
	if errno, err = d.Int32(); err != nil {
		return 0, 0, 0, err
	}
	if shard, err = d.Int32(); err != nil {
		return 0, 0, 0, err
	}
	return val, errno, shard, nil
}

// Release evicts the key's warm sessions fleet-wide.
func (fc *FleetClient) Release(key string) error {
	c := fc.C
	c.mu.Lock()
	defer c.mu.Unlock()
	c.begin(FleetProg, FleetVers, ProcFleetRelease).PutString(key)
	_, err := c.finish()
	return err
}

// FuncID resolves a registered function name on the server.
func (fc *FleetClient) FuncID(name string) (uint32, error) {
	c := fc.C
	c.mu.Lock()
	defer c.mu.Unlock()
	c.begin(FleetProg, FleetVers, ProcFleetFuncID).PutString(name)
	res, err := c.finish()
	if err != nil {
		return 0, err
	}
	d := xdr.NewDecoder(res)
	ok, err := d.Bool()
	if err != nil {
		return 0, err
	}
	id, err := d.Uint32()
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("rpc: unknown function %q", name)
	}
	return id, nil
}
