package rpc

import (
	"encoding/binary"
	"fmt"

	"repro/internal/kern"
	"repro/internal/xdr"
)

// Simulated local RPC, the Figure 8 baseline row. The client and
// server run as native processes inside the machine simulator and talk
// through the kernel's loopback datagram sockets, so every call pays
// the full local-RPC toll the paper's 63 us is made of: XDR marshal,
// sendto through the socket layer, a context switch to the server,
// dispatch, the reply path, and a switch back. Marshal/unmarshal work
// is charged explicitly (Sys.Burn) at CostRPCLayer + CostXDRPerByte
// per message, since native Go compute is otherwise free.
//
// Both endpoints are kern.Steppers, stepped inline by the kernel: the
// server is a process of its own (StartSimServer), and SimClient is a
// split-phase client that a Stepper body drives one syscall at a time.
// Neither runs a goroutine.
//
// The service is the paper's test-incr: "The function tested for both
// RPC and SecModule returns the argument value incremented by one."

// TestIncr program identity.
const (
	TestIncrProg = 0x20050100
	TestIncrVers = 1
	ProcIncr     = 1
)

// SimServerPort is the loopback port the simulated server binds.
const SimServerPort = 1111

// chargeMsg charges the marshal (or unmarshal) cost of one message.
func chargeMsg(s *kern.Sys, n int) {
	c := s.Kernel().Costs
	s.Burn(c.RPCLayer + uint64(n)*c.XDRPerByte)
}

// incr is the test-incr procedure: it returns its argument plus one.
func incr(args []byte, res *xdr.Encoder) error {
	d := xdr.NewDecoder(args)
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	res.PutUint32(v + 1)
	return nil
}

// StartSimServer spawns the simulated RPC server process. It serves
// forever; callers kill it (or just stop running the kernel) when done.
func StartSimServer(k *kern.Kernel, port uint16) *kern.Proc {
	srv := NewServer()
	srv.Register(TestIncrProg, TestIncrVers, ProcIncr, incr)
	return k.SpawnStepper("rpc.testincrd", kern.Cred{Name: "rpc-server"}, &simServer{srv: srv, port: port})
}

// simPhase is the syscall a simulated endpoint waits for.
type simPhase uint8

const (
	simIdle simPhase = iota
	simSocket
	simBind
	simSend
	simRecv
)

// simServer is the server process: socket, bind, then receive,
// dispatch and send, forever. An undecodable datagram is dropped, and a
// failed syscall ends the process with status 1. Every call is received
// into one buffer and every reply encoded into one encoder, both kept.
type simServer struct {
	srv   *Server
	port  uint16
	fd    int
	phase simPhase
	recv  kern.Syscall // the recvfrom in progress
	call  []byte
	reply xdr.Encoder
}

func (v *simServer) Step(s *kern.Sys, val uint32, errno int) (kern.Syscall, bool, int) {
	switch v.phase {
	case simIdle:
		v.phase = simSocket
		return s.SocketCall(), false, 0
	case simSocket:
		if errno != 0 {
			return kern.Syscall{}, true, 1
		}
		v.fd = int(val)
		v.phase = simBind
		return s.BindCall(v.fd, v.port), false, 0
	case simRecv:
		call, src, errno := s.Received(v.recv, val, errno, v.call)
		if errno != 0 {
			return kern.Syscall{}, true, 1
		}
		v.call = call
		chargeMsg(s, len(call)) // unmarshal call
		v.reply.Reset()
		if v.srv.Dispatch(call, &v.reply) == nil {
			chargeMsg(s, v.reply.Len()) // marshal reply
			v.phase = simSend
			return s.SendtoCall(v.fd, src, v.reply.Bytes()), false, 0
		}
		// An undecodable datagram: drop it.
	default: // bound, or a reply sent
		if errno != 0 {
			return kern.Syscall{}, true, 1
		}
	}
	v.phase = simRecv
	v.recv = s.RecvfromCall(v.fd, 64*1024)
	return v.recv, false, 0
}

// SimClient is the client endpoint of the simulated RPC, in split-phase
// form for a kern.Stepper body, in the idiom of core.Handshake: Open
// and Prepare return the first syscall of opening the client's socket
// and of a call, and Result takes each syscall's result and returns the
// next syscall until the operation is done. A call charges the marshal
// and unmarshal cost of every message it sends and receives, and skips
// replies to other XIDs.
type SimClient struct {
	s          *kern.Sys
	port       uint16 // the client's own
	serverPort uint16
	fd         int
	phase      simPhase
	codec      Client       // the call's encoder, XID and decoded reply; no transport
	recv       kern.Syscall // the recvfrom in progress
	raw        []byte       // every reply is received into it
}

// NewSimClient returns a client of the process s that will bind
// clientPort and call the server at serverPort. Open makes its socket.
func NewSimClient(s *kern.Sys, clientPort, serverPort uint16) *SimClient {
	return &SimClient{s: s, port: clientPort, serverPort: serverPort}
}

// Open returns the first syscall of opening the client's socket: socket,
// then bind. Feed each result to Result until it reports done.
func (c *SimClient) Open() kern.Syscall {
	c.phase = simSocket
	return c.s.SocketCall()
}

// Prepare begins a call of (prog, vers, proc) with the XDR-encoded args
// under a fresh XID, charges its marshal cost and returns the sendto
// that sends it. Feed each result to Result until it reports done.
func (c *SimClient) Prepare(prog, vers, proc uint32, args []byte) kern.Syscall {
	c.codec.begin(prog, vers, proc).PutRaw(args)
	m := c.codec.call.Bytes()[markLen:]
	chargeMsg(c.s, len(m)) // marshal call
	c.phase = simSend
	return c.s.SendtoCall(c.fd, c.serverPort, m)
}

// PrepareIncr prepares a call of the test-incr procedure on x.
func (c *SimClient) PrepareIncr(x uint32) kern.Syscall {
	var args [4]byte
	binary.BigEndian.PutUint32(args[:], x)
	return c.Prepare(TestIncrProg, TestIncrVers, ProcIncr, args[:])
}

// Result takes the result of the syscall the client returned last.
// While the operation is in progress it returns the next syscall;
// then done, with the call's results (nil for Open), which point into
// the client's reply buffer and are valid until its next call, or the
// error.
func (c *SimClient) Result(val uint32, errno int) (next kern.Syscall, done bool, res []byte, err error) {
	s := c.s
	switch c.phase {
	case simSocket:
		if errno != 0 {
			return c.end(nil, fmt.Errorf("rpc: sim socket: errno %d", errno))
		}
		c.fd = int(val)
		c.phase = simBind
		return s.BindCall(c.fd, c.port), false, nil, nil
	case simBind:
		if errno != 0 {
			return c.end(nil, fmt.Errorf("rpc: sim bind(%d): errno %d", c.port, errno))
		}
		return c.end(nil, nil)
	case simSend:
		if errno != 0 {
			return c.end(nil, fmt.Errorf("rpc: sim sendto: errno %d", errno))
		}
	case simRecv:
		raw, _, errno := s.Received(c.recv, val, errno, c.raw)
		if errno != 0 {
			return c.end(nil, fmt.Errorf("rpc: sim recvfrom: errno %d", errno))
		}
		c.raw = raw
		chargeMsg(s, len(raw)) // unmarshal reply
		if res, ok, err := c.codec.match(raw); ok {
			return c.end(res, err)
		}
	default:
		panic("rpc: SimClient.Result with no operation in progress")
	}
	// The call is sent, or a stale reply skipped: wait for the reply.
	c.phase = simRecv
	c.recv = s.RecvfromCall(c.fd, 64*1024)
	return c.recv, false, nil, nil
}

// end ends the operation in progress with res or err.
func (c *SimClient) end(res []byte, err error) (kern.Syscall, bool, []byte, error) {
	c.phase = simIdle
	return kern.Syscall{}, true, res, err
}
