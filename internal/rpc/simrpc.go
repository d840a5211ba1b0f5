package rpc

import (
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
// Every reply is encoded into one encoder the process reuses.
func StartSimServer(k *kern.Kernel, port uint16) *kern.Proc {
	srv := NewServer()
	srv.Register(TestIncrProg, TestIncrVers, ProcIncr, incr)
	return k.SpawnNative("rpc.testincrd", kern.Cred{Name: "rpc-server"}, func(s *kern.Sys) int {
		fd, errno := s.Socket()
		if errno != 0 {
			return 1
		}
		if errno := s.Bind(fd, port); errno != 0 {
			return 1
		}
		var reply xdr.Encoder
		for {
			call, src, errno := s.Recvfrom(fd, 64*1024)
			if errno != 0 {
				return 1
			}
			chargeMsg(s, len(call)) // unmarshal call
			reply.Reset()
			if srv.Dispatch(call, &reply) != nil {
				continue // undecodable datagram: drop
			}
			chargeMsg(s, reply.Len()) // marshal reply
			if errno := s.Sendto(fd, src, reply.Bytes()); errno != 0 {
				return 1
			}
		}
	})
}

// SimClient is a simulated-process RPC client endpoint: a Client
// whose transport is the simulated loopback, charging the marshal and
// unmarshal cost of every message it sends and receives.
type SimClient struct {
	*Client
}

// NewSimClient creates the client socket inside the calling simulated
// process and aims it at the server port.
func NewSimClient(s *kern.Sys, clientPort, serverPort uint16) (*SimClient, error) {
	fd, errno := s.Socket()
	if errno != 0 {
		return nil, fmt.Errorf("rpc: sim socket: errno %d", errno)
	}
	if errno := s.Bind(fd, clientPort); errno != 0 {
		return nil, fmt.Errorf("rpc: sim bind(%d): errno %d", clientPort, errno)
	}
	return &SimClient{&Client{
		send: func(m []byte) error {
			m = m[markLen:]
			chargeMsg(s, len(m)) // marshal call
			if errno := s.Sendto(fd, serverPort, m); errno != 0 {
				return fmt.Errorf("rpc: sim sendto: errno %d", errno)
			}
			return nil
		},
		recv: func() ([]byte, error) {
			raw, _, errno := s.Recvfrom(fd, 64*1024)
			if errno != 0 {
				return nil, fmt.Errorf("rpc: sim recvfrom: errno %d", errno)
			}
			chargeMsg(s, len(raw)) // unmarshal reply
			return raw, nil
		},
	}}, nil
}

// Incr calls the test-incr procedure: it returns x+1 as computed by
// the server.
func (c *SimClient) Incr(x uint32) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.begin(TestIncrProg, TestIncrVers, ProcIncr).PutUint32(x)
	res, err := c.finish()
	if err != nil {
		return 0, err
	}
	d := xdr.NewDecoder(res)
	return d.Uint32()
}
