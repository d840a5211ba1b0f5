package rpc

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Host-network transports: record-marked TCP (RFC 1831 section 10) and
// UDP, both over real sockets, plus an in-memory pipe for tests. These
// exist so the RPC stack is a genuine baseline, not a stub; the
// simulated Figure 8 row lives in simrpc.go.

// maxRecord bounds a single record/datagram.
const maxRecord = 1 << 20

// readChunk bounds how far ReadRecord allocates ahead of the bytes that
// have arrived: a fragment body larger than this is read in pieces of
// this size, so a header claiming up to maxRecord bytes costs memory
// only as its body is received.
const readChunk = 64 << 10

// WriteRecord writes one record-marked message to a stream transport:
// fragments carry a 4-byte header whose top bit marks the last
// fragment. We always emit a single fragment (messages are small).
func WriteRecord(w io.Writer, msg []byte) error {
	if len(msg) > maxRecord {
		return fmt.Errorf("rpc: record %d bytes exceeds limit", len(msg))
	}
	hdr := uint32(len(msg)) | 0x80000000
	b := []byte{byte(hdr >> 24), byte(hdr >> 16), byte(hdr >> 8), byte(hdr)}
	if _, err := w.Write(append(b, msg...)); err != nil {
		return err
	}
	return nil
}

// ReadRecord reads one record-marked message, reassembling fragments.
func ReadRecord(r io.Reader) ([]byte, error) {
	var msg []byte
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, err
		}
		h := uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3])
		last := h&0x80000000 != 0
		n := int(h &^ 0x80000000)
		if n > maxRecord || len(msg)+n > maxRecord {
			return nil, fmt.Errorf("rpc: fragment %d bytes exceeds limit", n)
		}
		for got := 0; got < n; {
			c := min(n-got, readChunk)
			if len(msg)+c > cap(msg) {
				msg = append(make([]byte, 0, 2*len(msg)+c), msg...)
			}
			if _, err := io.ReadFull(r, msg[len(msg):len(msg)+c]); err != nil {
				if err == io.EOF && got > 0 {
					err = io.ErrUnexpectedEOF // the fragment ended early
				}
				return nil, err
			}
			msg = msg[:len(msg)+c]
			got += c
		}
		if last {
			return msg, nil
		}
	}
}

// ServeTCP accepts connections on l and serves RPC calls until l is
// closed. Each connection gets its own goroutine.
func ServeTCP(l net.Listener, s *Server) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			defer c.Close()
			for {
				call, err := ReadRecord(c)
				if err != nil {
					return
				}
				reply, err := s.Dispatch(call)
				if err != nil {
					return
				}
				if err := WriteRecord(c, reply); err != nil {
					return
				}
			}
		}(conn)
	}
}

// ServeUDP answers RPC datagrams on conn until it is closed.
// Undecodable calls are dropped, as real servers drop them.
func ServeUDP(conn net.PacketConn, s *Server) {
	buf := make([]byte, 64*1024)
	for {
		n, addr, err := conn.ReadFrom(buf)
		if err != nil {
			return
		}
		reply, err := s.Dispatch(append([]byte(nil), buf[:n]...))
		if err != nil {
			continue
		}
		if _, err := conn.WriteTo(reply, addr); err != nil {
			return
		}
	}
}

// Client issues RPC calls over a stream or datagram endpoint.
type Client struct {
	mu   sync.Mutex
	xid  uint32
	send func(msg []byte) error
	recv func() ([]byte, error)
	clos func() error
}

var errDeadline = errors.New("rpc: timed out")

// DialTCP connects a record-marked TCP client.
func DialTCP(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{
		send: func(m []byte) error { return WriteRecord(conn, m) },
		recv: func() ([]byte, error) { return ReadRecord(conn) },
		clos: conn.Close,
	}, nil
}

// DialUDP connects a datagram client with the given receive timeout
// (zero means wait forever).
func DialUDP(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 64*1024)
	return &Client{
		send: func(m []byte) error {
			_, err := conn.Write(m)
			return err
		},
		recv: func() ([]byte, error) {
			if timeout > 0 {
				if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
					return nil, err
				}
			}
			n, err := conn.Read(buf)
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					return nil, errDeadline
				}
				return nil, err
			}
			return append([]byte(nil), buf[:n]...), nil
		},
		clos: conn.Close,
	}, nil
}

// NewPipeClient returns a client that dispatches directly into s
// through an in-memory "transport" (useful in unit tests where no
// network is available).
func NewPipeClient(s *Server) *Client {
	var pending [][]byte
	return &Client{
		send: func(m []byte) error {
			reply, err := s.Dispatch(m)
			if err != nil {
				return err
			}
			pending = append(pending, reply)
			return nil
		},
		recv: func() ([]byte, error) {
			if len(pending) == 0 {
				return nil, io.EOF
			}
			r := pending[0]
			pending = pending[1:]
			return r, nil
		},
		clos: func() error { return nil },
	}
}

// Close releases the client's connection.
func (c *Client) Close() error {
	if c.clos == nil {
		return nil
	}
	return c.clos()
}

// Call issues one RPC and returns the XDR-encoded results. Mismatched
// XIDs in replies (stale datagrams) are skipped.
func (c *Client) Call(prog, vers, proc uint32, args []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	xid := atomic.AddUint32(&c.xid, 1)
	msg := EncodeCall(&CallMsg{XID: xid, Prog: prog, Vers: vers, Proc: proc, Args: args})
	if err := c.send(msg); err != nil {
		return nil, err
	}
	for {
		raw, err := c.recv()
		if err != nil {
			return nil, err
		}
		reply, err := DecodeReply(raw)
		if err != nil {
			return nil, err
		}
		if reply.XID != xid {
			continue
		}
		return checkReply(reply)
	}
}

// checkReply converts reply status to a Go error.
func checkReply(r *ReplyMsg) ([]byte, error) {
	if r.Status == ReplyDenied {
		if r.RejectStat == RejectRPCMismatch {
			return nil, fmt.Errorf("rpc: denied: version mismatch (server supports %d-%d)",
				r.MismatchLow, r.MismatchHigh)
		}
		return nil, fmt.Errorf("rpc: denied: auth error %d", r.AuthStat)
	}
	switch r.AcceptStat {
	case AcceptSuccess:
		return r.Results, nil
	case AcceptProgUnavail:
		return nil, errors.New("rpc: program unavailable")
	case AcceptProgMismatch:
		return nil, fmt.Errorf("rpc: program version mismatch (server supports %d-%d)",
			r.MismatchLow, r.MismatchHigh)
	case AcceptProcUnavail:
		return nil, errors.New("rpc: procedure unavailable")
	case AcceptGarbageArgs:
		return nil, errors.New("rpc: garbage arguments")
	default:
		return nil, errors.New("rpc: system error on server")
	}
}
