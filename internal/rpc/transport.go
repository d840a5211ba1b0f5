package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/xdr"
)

// Host-network transports: record-marked TCP (RFC 1831 section 10) and
// UDP, both over real sockets, plus an in-memory pipe for tests. These
// exist so the RPC stack is a genuine baseline, not a stub; the
// simulated Figure 8 row lives in simrpc.go.
//
// Every endpoint reuses its buffers from call to call. A stream
// connection reads through one buffered reader into one record buffer,
// and encodes each message it sends into one encoder, record mark
// included, so a message costs one Write and, when it is small, one
// Read. A datagram endpoint keeps one datagram buffer and one encoder.

// maxRecord bounds a single record/datagram.
const maxRecord = 1 << 20

// readChunk bounds how far ReadRecord allocates ahead of the bytes that
// have arrived: a fragment body larger than this is read in pieces of
// this size, so a header claiming up to maxRecord bytes costs memory
// only as its body is received. It also bounds the record buffer and
// the encoder a connection keeps between messages: a larger message's
// buffer is dropped once it has been served.
const readChunk = 64 << 10

// markLen is the size of a record-marking header; lastFrag is its bit
// marking the last fragment of a record.
const (
	markLen  = 4
	lastFrag = 0x80000000
)

// beginRecord resets e and reserves the record mark of the message
// about to be encoded into it; markRecord fills the mark in.
func beginRecord(e *xdr.Encoder) {
	e.Reset()
	e.PutUint32(0)
}

// markRecord fills in the record mark of rec, a message encoded after
// the markLen bytes beginRecord reserved, as one last fragment (messages
// are small). rec can then be written whole.
func markRecord(rec []byte) error {
	n := len(rec) - markLen
	if n > maxRecord {
		return fmt.Errorf("rpc: record %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(rec, uint32(n)|lastFrag)
	return nil
}

// ReadRecord reads one record-marked message, reassembling fragments,
// into buf's storage and returns it. A record that does not fit in buf
// moves to a new buffer, which grows only as the record's bytes arrive.
func ReadRecord(r io.Reader, buf []byte) ([]byte, error) {
	msg := buf[:0]
	for {
		// The header is read into the spare capacity after the message,
		// which the body then overwrites.
		if cap(msg)-len(msg) < markLen {
			msg = grow(msg, markLen)
		}
		hdr := msg[len(msg) : len(msg)+markLen]
		if _, err := io.ReadFull(r, hdr); err != nil {
			return nil, err
		}
		h := binary.BigEndian.Uint32(hdr)
		last := h&lastFrag != 0
		n := int(h &^ lastFrag)
		if n > maxRecord || len(msg)+n > maxRecord {
			return nil, fmt.Errorf("rpc: fragment %d bytes exceeds limit", n)
		}
		for got := 0; got < n; {
			c := min(n-got, readChunk)
			if len(msg)+c > cap(msg) {
				msg = grow(msg, c)
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

// grow returns msg in a new buffer with room for n more bytes.
func grow(msg []byte, n int) []byte {
	return append(make([]byte, 0, 2*len(msg)+n), msg...)
}

// recordReader reads the records of one stream through a buffered
// reader into a record buffer it keeps while the buffer is at most
// readChunk bytes.
type recordReader struct {
	br  *bufio.Reader
	buf []byte
}

func newRecordReader(r io.Reader) *recordReader {
	return &recordReader{br: bufio.NewReader(r)}
}

// next returns the next record. It points into the reader's buffer and
// is valid until the following call.
func (rr *recordReader) next() ([]byte, error) {
	msg, err := ReadRecord(rr.br, rr.buf)
	if err != nil {
		return nil, err
	}
	if cap(msg) <= readChunk {
		rr.buf = msg[:0]
	} else {
		rr.buf = nil
	}
	return msg, nil
}

// ServeTCP accepts connections on l and serves RPC calls on each, one
// goroutine per connection, until l is closed. A temporary Accept
// error (EMFILE, say) is retried after a backoff, as net/http's
// Server.Serve does. Once l is closed, ServeTCP closes every connection
// it accepted and returns when their goroutines have exited.
func ServeTCP(l net.Listener, s *Server) {
	var (
		mu    sync.Mutex
		conns = map[net.Conn]struct{}{}
		wg    sync.WaitGroup
	)
	defer func() {
		mu.Lock()
		for c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}()
	var delay time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			var ne net.Error
			if errors.Is(err, net.ErrClosed) || !errors.As(err, &ne) || !ne.Temporary() {
				return
			}
			delay = backoff(delay)
			time.Sleep(delay)
			continue
		}
		delay = 0
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveConn(conn, s)
			mu.Lock()
			delete(conns, conn)
			mu.Unlock()
			conn.Close()
		}()
	}
}

// backoff is the next retry delay after d: 5 ms, doubling up to 1 s.
func backoff(d time.Duration) time.Duration {
	if d == 0 {
		return 5 * time.Millisecond
	}
	return min(2*d, time.Second)
}

// serveConn serves the calls of one connection in order until a read,
// a dispatch or a write fails. An oversized or truncated record ends
// it, and so does a call too broken to reply to.
func serveConn(c net.Conn, s *Server) {
	rr := newRecordReader(c)
	var reply xdr.Encoder
	for {
		call, err := rr.next()
		if err != nil {
			return
		}
		beginRecord(&reply)
		if err := s.Dispatch(call, &reply); err != nil {
			return
		}
		rec := reply.Bytes()
		if err := markRecord(rec); err != nil {
			return
		}
		if _, err := c.Write(rec); err != nil {
			return
		}
		if len(rec) > readChunk {
			reply = xdr.Encoder{}
		}
	}
}

// udpWorkers is how many datagrams ServeUDP serves at once. A worker
// stays in its handler for the whole call (a fleet call waits for its
// shard), so with one worker a single slow call would stall every UDP
// client. Each worker holds a 64 KiB datagram buffer, so 8 of them keep
// 8 calls in flight for half a megabyte.
const udpWorkers = 8

// ServeUDP answers RPC datagrams on conn with udpWorkers workers, each
// with its own datagram buffer and reply encoder. Undecodable calls
// are dropped, as real servers drop them, and so is a reply whose
// write fails. ServeUDP returns once conn is closed and every worker
// has exited.
func ServeUDP(conn net.PacketConn, s *Server) {
	var wg sync.WaitGroup
	for i := 0; i < udpWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveDatagrams(conn, s)
		}()
	}
	wg.Wait()
}

// serveDatagrams is one ServeUDP worker.
func serveDatagrams(conn net.PacketConn, s *Server) {
	buf := make([]byte, 64*1024)
	var reply xdr.Encoder
	var delay time.Duration
	for {
		n, addr, err := conn.ReadFrom(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			delay = backoff(delay)
			time.Sleep(delay)
			continue
		}
		delay = 0
		reply.Reset()
		if err := s.Dispatch(buf[:n], &reply); err != nil {
			continue
		}
		conn.WriteTo(reply.Bytes(), addr) // a failed write drops this reply only
	}
}

// Client issues RPC calls over a stream or datagram endpoint. It keeps
// one encoder for the call it sends and one decoded reply, reused by
// every call under mu.
type Client struct {
	mu    sync.Mutex
	xid   uint32
	call  xdr.Encoder
	reply ReplyMsg
	// send transmits a call message encoded after beginRecord's
	// record-mark slot: a stream transport fills the mark in and writes
	// the whole record, a datagram transport sends what follows the
	// slot. recv returns the next reply message, which may point into a
	// buffer the following recv reuses.
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
	return newStreamClient(conn), nil
}

// newStreamClient returns a record-marked client on conn.
func newStreamClient(conn net.Conn) *Client {
	rr := newRecordReader(conn)
	return &Client{
		send: func(rec []byte) error {
			if err := markRecord(rec); err != nil {
				return err
			}
			_, err := conn.Write(rec)
			return err
		},
		recv: rr.next,
		clos: conn.Close,
	}
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
			_, err := conn.Write(m[markLen:])
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
			return buf[:n], nil
		},
		clos: conn.Close,
	}, nil
}

// NewPipeClient returns a client that dispatches directly into s
// through an in-memory "transport" (useful in unit tests where no
// network is available).
func NewPipeClient(s *Server) *Client {
	var reply xdr.Encoder
	pending := false
	return &Client{
		send: func(m []byte) error {
			reply.Reset()
			if err := s.Dispatch(m[markLen:], &reply); err != nil {
				return err
			}
			pending = true
			return nil
		},
		recv: func() ([]byte, error) {
			if !pending {
				return nil, io.EOF
			}
			pending = false
			return reply.Bytes(), nil
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

// Call issues one RPC and returns a copy of the XDR-encoded results.
// Mismatched XIDs in replies (stale datagrams) are skipped.
func (c *Client) Call(prog, vers, proc uint32, args []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.begin(prog, vers, proc).PutRaw(args)
	res, err := c.finish()
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), res...), nil
}

// begin starts a call to (prog, vers, proc) under a fresh XID in the
// client's encoder and returns the encoder, for the caller to append
// the arguments. The caller holds c.mu until it is done with the
// results finish returns (a SimClient's codec, used by one simulated
// process, needs no lock).
func (c *Client) begin(prog, vers, proc uint32) *xdr.Encoder {
	c.xid++
	beginRecord(&c.call)
	m := CallMsg{XID: c.xid, Prog: prog, Vers: vers, Proc: proc}
	m.Encode(&c.call)
	return &c.call
}

// finish sends the call begun with begin and waits for its reply,
// skipping replies to other XIDs. The results it returns point into
// the transport's buffer and are valid until the client's next call.
func (c *Client) finish() ([]byte, error) {
	if err := c.send(c.call.Bytes()); err != nil {
		return nil, err
	}
	if c.call.Len() > readChunk {
		c.call = xdr.Encoder{}
	}
	for {
		raw, err := c.recv()
		if err != nil {
			return nil, err
		}
		if res, ok, err := c.match(raw); ok {
			return res, err
		}
	}
}

// match decodes raw as the reply to the call begun last. It reports ok
// false for a reply to another XID (a stale datagram), which the caller
// skips; otherwise it returns the call's results, which point into raw,
// or the error the reply decodes to or its status reports.
func (c *Client) match(raw []byte) (res []byte, ok bool, err error) {
	if err := c.reply.Decode(raw); err != nil {
		return nil, true, err
	}
	if c.reply.XID != c.xid {
		return nil, false, nil
	}
	res, err = checkReply(&c.reply)
	return res, true, err
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
