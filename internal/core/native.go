package core

import (
	"errors"
	"fmt"

	"repro/internal/kern"
)

// NativeClient lets a native process (a Go test or benchmark driver)
// attach to a SecModule and invoke protected functions through the
// exact kernel path an SM32 client uses: the same smod_find /
// smod_start_session / smod_handle_info handshake and the same
// smod_call dispatch, with the argument words laid out on a simulated
// client stack inside the share range so the handle's receive stub
// reads arguments and restores clobbered words exactly as in Figure 3.
//
// Both protocols exist in step form, for a kern.Stepper body: a
// Handshake attaches, and Prepare lays out one call. AttachNative and
// Call drive the same two from blocking code.
type NativeClient struct {
	sys *kern.Sys
	mid int
	// stackTop is the top of the simulated client stack, carved from
	// the top of the native scratch segment (inside the share range).
	stackTop uint32
}

// nativeStackSize is the simulated-stack reservation for native clients.
const nativeStackSize = 16 * 1024

// MaxNativeArgs is the most argument words a native client's call frame
// holds: its stack reservation less the return-address, funcID and
// moduleID words.
const MaxNativeArgs = nativeStackSize/4 - 3

// ErrTooManyArgs reports a call with more than MaxNativeArgs argument
// words.
var ErrTooManyArgs = errors.New("core: too many call arguments")

// Handshake is the Figure 1 client handshake in step form: a
// kern.Stepper that finds the module, starts the session presenting the
// credential text, and waits for the handle, then exits. It leaves the
// attached client in Client, or the failed step in Err (exit status 1).
type Handshake struct {
	Module     string
	Version    int
	Credential string

	Client *NativeClient
	Err    error

	sent   int          // syscalls returned so far
	mid    uint32       // smod_find's m_id
	client NativeClient // what Client points to once attached
}

// Step returns the handshake's next syscall, given the last one's result.
func (h *Handshake) Step(s *kern.Sys, val uint32, errno int) (kern.Syscall, bool, int) {
	h.sent++
	switch h.sent {
	case 1:
		return kern.Syscall{No: SysFindNo, Args: [6]uint32{s.StageString(h.Module), uint32(int32(h.Version))}}, false, 0
	case 2:
		if errno != 0 {
			return h.fail(fmt.Errorf("core: smod_find(%s,%d): errno %d", h.Module, h.Version, errno))
		}
		h.mid = val
		// Build the session descriptor {m_id, cred_ptr, cred_len, 0}.
		cred := []byte(h.Credential)
		credAddr := uint32(0)
		if len(cred) > 0 {
			credAddr = s.StageBytes(cred)
		}
		var desc [descSize]byte
		putLE32(desc[0:], h.mid)
		putLE32(desc[4:], credAddr)
		putLE32(desc[8:], uint32(len(cred)))
		return kern.Syscall{No: SysStartSessionNo, Args: [6]uint32{s.StageBytes(desc[:])}}, false, 0
	case 3:
		if errno != 0 {
			return h.fail(fmt.Errorf("core: smod_start_session(%s): errno %d", h.Module, errno))
		}
		return kern.Syscall{No: SysHandleInfoNo, Args: [6]uint32{h.mid}}, false, 0
	default:
		if errno != 0 {
			return h.fail(fmt.Errorf("core: smod_handle_info(%s): errno %d", h.Module, errno))
		}
		h.client = NativeClient{
			sys:      s,
			mid:      int(h.mid),
			stackTop: s.ReserveTop(nativeStackSize),
		}
		h.Client = &h.client
		return kern.Syscall{}, true, 0
	}
}

func (h *Handshake) fail(err error) (kern.Syscall, bool, int) {
	h.Err = err
	return kern.Syscall{}, true, 1
}

// AttachNative performs the full Figure 1 client handshake from a
// native process run by kern.SpawnNative. It returns a client ready to
// Call.
func AttachNative(s *kern.Sys, module string, version int, credential string) (*NativeClient, error) {
	h := Handshake{Module: module, Version: version, Credential: credential}
	var val uint32
	var errno int
	for {
		sc, exit, _ := h.Step(s, val, errno)
		if exit {
			return h.Client, h.Err
		}
		val, errno = s.Call(sc.No, sc.Args[:]...)
	}
}

// ModuleID returns the attached module's m_id.
func (c *NativeClient) ModuleID() int { return c.mid }

// Prepare lays out a call of funcID with the given word arguments and
// returns the smod_call syscall that makes it. The words are laid out
// exactly like an SM32 client stub would leave them: arguments, then
// the return address, funcID and moduleID on top, with the process SP
// pointing at the moduleID word (Figure 3 step 2). A call of more than
// MaxNativeArgs words fails with ErrTooManyArgs, before any word is
// written.
func (c *NativeClient) Prepare(funcID uint32, args ...uint32) (kern.Syscall, error) {
	if len(args) > MaxNativeArgs {
		return kern.Syscall{}, fmt.Errorf("core: call of %d words, at most %d: %w", len(args), MaxNativeArgs, ErrTooManyArgs)
	}
	p := c.sys.Proc()
	sp := c.stackTop
	write := func(v uint32) error {
		sp -= 4
		if err := p.Space.Write32(sp, v); err != nil {
			return fmt.Errorf("core: native client stack write: %w", err)
		}
		return nil
	}
	for i := len(args) - 1; i >= 0; i-- {
		if err := write(args[i]); err != nil {
			return kern.Syscall{}, err
		}
	}
	// Return address (unused by a native client), funcID, moduleID.
	for _, v := range [3]uint32{0, funcID, uint32(c.mid)} {
		if err := write(v); err != nil {
			return kern.Syscall{}, err
		}
	}
	p.CPU.SP = sp
	return kern.Syscall{No: SysCallNo, Args: [6]uint32{uint32(c.mid), funcID}}, nil
}

// Call invokes funcID with the given word arguments through smod_call,
// from a native process run by kern.SpawnNative. A call Prepare
// refuses returns EINVAL, or E2BIG for too many words, without
// trapping.
func (c *NativeClient) Call(funcID uint32, args ...uint32) (uint32, int) {
	sc, err := c.Prepare(funcID, args...)
	switch {
	case errors.Is(err, ErrTooManyArgs):
		return 0, kern.E2BIG
	case err != nil:
		return 0, kern.EINVAL
	}
	return c.sys.Call(sc.No, sc.Args[:]...)
}

// MustCall is Call that fails the driver on error, for benchmark loops.
func (c *NativeClient) MustCall(funcID uint32, args ...uint32) uint32 {
	v, errno := c.Call(funcID, args...)
	if errno != 0 {
		panic(fmt.Sprintf("core: smod_call(func %d): errno %d", funcID, errno))
	}
	return v
}
