package fleet

import (
	"errors"

	"repro/internal/core"
	"repro/internal/rpc"
)

// Network-serving adapter: the three methods that structurally satisfy
// rpc.FleetBackend, so smodfleetd can front a fleet with
// rpc.RegisterFleetService without the rpc package ever importing this
// one. A served call is a live single-call job — no implicit barrier —
// which is exactly the wall-clock open-loop mode a daemon serves in:
// calls land between barriers, and barrier work (rebalance, reconcile
// actions, autoscaler windows) happens only when the reconcile loop
// calls Rebalance.

// FleetCall submits one call under the sticky session key through Do
// and waits for its response, returning the value, the simulated kernel
// errno (0 = success), and the serving shard. Fleet-level failures
// (closed fleet, dead shard) come back as the error; a nonzero errno is
// a normal reply. A QoS shed (ErrOverload) is also a normal reply — the
// transport stays up — carrying the distinct rpc.ErrnoOverload so
// clients (smodfleetctl burst) can count sheds apart from module
// errnos. So is a call with more arguments than a native call frame
// holds (core.ErrTooManyArgs), refused before any shard sees it: it
// carries rpc.ErrnoTooManyArgs and shard -1.
func (f *Fleet) FleetCall(key string, funcID uint32, args []uint32) (uint32, int32, int32, error) {
	r := f.Do(Request{Key: key, FuncID: funcID, Args: args})
	switch {
	case r.Err == nil:
		return r.Val, int32(r.Errno), int32(r.Shard), nil
	case errors.Is(r.Err, core.ErrTooManyArgs):
		return 0, rpc.ErrnoTooManyArgs, -1, nil
	case errors.Is(r.Err, ErrOverload):
		return 0, rpc.ErrnoOverload, int32(r.Shard), nil
	}
	return 0, 0, int32(r.Shard), r.Err
}

// FleetRelease evicts the key's warm sessions fleet-wide.
func (f *Fleet) FleetRelease(key string) error { return f.Release(key) }

// FleetFuncID resolves a registered module function name.
func (f *Fleet) FleetFuncID(name string) (uint32, bool) { return f.FuncID(name) }
