package rpc

import (
	"bytes"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/xdr"
)

// pipeListener is a net.Listener whose connections are in-memory
// net.Pipe pairs: dial hands the server end to Accept and returns the
// client end.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

// accept queues the server end of a connection for Accept, failing if
// no Accept takes it within 5 s.
func (l *pipeListener) accept(server net.Conn) error {
	select {
	case l.conns <- server:
		return nil
	case <-l.done:
		return net.ErrClosed
	case <-time.After(5 * time.Second):
		return errors.New("no Accept took the connection")
	}
}

func (l *pipeListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	if err := l.accept(server); err != nil {
		return nil, err
	}
	return client, nil
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// serveOn runs ServeTCP on l with the fleet service over b. The
// returned channel closes when ServeTCP returns; the test's cleanup
// closes l and waits for that.
func serveOn(t testing.TB, l net.Listener, b FleetBackend) <-chan struct{} {
	s := NewServer()
	RegisterFleetService(s, b)
	served := make(chan struct{})
	go func() {
		defer close(served)
		ServeTCP(l, s)
	}()
	t.Cleanup(func() {
		l.Close()
		<-served
	})
	return served
}

// pipeFleetClient serves b over a pipe listener and returns a fleet
// client on one of its connections.
func pipeFleetClient(t testing.TB, b FleetBackend) (*FleetClient, *pipeListener, <-chan struct{}) {
	l := newPipeListener()
	served := serveOn(t, l, b)
	conn, err := l.dial()
	if err != nil {
		t.Fatal(err)
	}
	fc := &FleetClient{C: newStreamClient(conn)}
	t.Cleanup(func() { fc.C.Close() })
	return fc, l, served
}

// servedCallAllocs bounds the allocations of one warm served call,
// client and server together: the server's decode of the key string
// (xdr.Decoder.String) and of the argument slice (xdr.Decoder.Uint32s),
// which the backend may keep. Everything else reuses per-connection
// buffers.
const servedCallAllocs = 2

// TestServedCallAllocs: a warm FleetClient.Call through ServeTCP over
// net.Pipe allocates only what the handler decodes.
func TestServedCallAllocs(t *testing.T) {
	fc, _, _ := pipeFleetClient(t, &fakeFleet{})
	call := func() {
		if val, errno, _, err := fc.Call("c0001", 7, 41); err != nil || errno != 0 || val != 42 {
			t.Fatalf("Call = (%d, errno %d, %v), want (42, 0, nil)", val, errno, err)
		}
	}
	call()
	if got := testing.AllocsPerRun(200, call); got > servedCallAllocs {
		t.Fatalf("served call: %.2f allocs, want <= %d", got, servedCallAllocs)
	}
}

// countConn counts the Reads that returned and the Writes that started
// on a connection. Once a reply has arrived, its writer has started
// writing it, and has returned from the read of the call before it;
// its read of the next call is still blocked.
type countConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.reads.Add(1)
	return n, err
}

func (c *countConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestOneReadPerRecord: each side of a connection reads a small record
// with one Read and writes it, record mark included, with one Write.
func TestOneReadPerRecord(t *testing.T) {
	l := newPipeListener()
	serveOn(t, l, &fakeFleet{})
	client, server := net.Pipe()
	cc, sc := &countConn{Conn: client}, &countConn{Conn: server}
	if err := l.accept(sc); err != nil {
		t.Fatal(err)
	}
	fc := &FleetClient{C: newStreamClient(cc)}
	defer fc.C.Close()
	const calls = 50
	for i := uint32(0); i < calls; i++ {
		if val, _, _, err := fc.Call("c0001", 7, i); err != nil || val != i+1 {
			t.Fatalf("call %d = %d, %v", i, val, err)
		}
	}
	for _, side := range []struct {
		name string
		c    *countConn
	}{{"client", cc}, {"server", sc}} {
		if r, w := side.c.reads.Load(), side.c.writes.Load(); r != calls || w != calls {
			t.Errorf("%s: %d reads and %d writes for %d records, want one each", side.name, r, w, calls)
		}
	}
}

// TestServeTCPSurvivesTemporaryAcceptError: an Accept that fails with
// EMFILE is retried, and the listener keeps serving.
func TestServeTCPSurvivesTemporaryAcceptError(t *testing.T) {
	l := &flakyListener{pipeListener: newPipeListener()}
	serveOn(t, l, &fakeFleet{})
	conn, err := l.dial()
	if err != nil {
		t.Fatalf("dial after a temporary Accept error: %v", err)
	}
	fc := &FleetClient{C: newStreamClient(conn)}
	defer fc.C.Close()
	if val, _, _, err := fc.Call("c0001", 7, 1); err != nil || val != 2 {
		t.Fatalf("Call = %d, %v; want 2, nil", val, err)
	}
}

// flakyListener fails its first Accept the way an exhausted file table
// does.
type flakyListener struct {
	*pipeListener
	failed atomic.Bool
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if !l.failed.Swap(true) {
		return nil, &net.OpError{Op: "accept", Net: "pipe", Err: os.NewSyscallError("accept4", syscall.EMFILE)}
	}
	return l.pipeListener.Accept()
}

// TestServeTCPClosesConnectionsOnClose: once its listener closes,
// ServeTCP closes the connections it accepted and returns, so a
// connected client's next call fails.
func TestServeTCPClosesConnectionsOnClose(t *testing.T) {
	fc, l, served := pipeFleetClient(t, &fakeFleet{})
	if _, err := fc.FuncID("incr"); err != nil {
		t.Fatal(err)
	}
	l.Close()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeTCP did not return after its listener closed")
	}
	if _, err := fc.FuncID("incr"); err == nil {
		t.Fatal("a call after ServeTCP returned was answered")
	}
}

// blockingFleet is a fakeFleet whose calls under the key "slow" wait
// until release is closed.
type blockingFleet struct {
	fakeFleet
	entered chan struct{}
	release chan struct{}
}

func (b *blockingFleet) FleetCall(key string, funcID uint32, args []uint32) (uint32, int32, int32, error) {
	if key == "slow" {
		b.entered <- struct{}{}
		<-b.release
	}
	return b.fakeFleet.FleetCall(key, funcID, args)
}

// serveUDP runs ServeUDP on a loopback socket wrapped by wrap and
// returns its address; cleanup closes the socket and requires
// ServeUDP to return.
func serveUDP(t *testing.T, b FleetBackend, wrap func(net.PacketConn) net.PacketConn) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP in this environment: %v", err)
	}
	s := NewServer()
	RegisterFleetService(s, b)
	served := make(chan struct{})
	go func() {
		defer close(served)
		ServeUDP(wrap(pc), s)
	}()
	t.Cleanup(func() {
		pc.Close()
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Error("ServeUDP did not return after its socket closed")
		}
	})
	return pc.LocalAddr().String()
}

func udpFleetClient(t *testing.T, addr string, timeout time.Duration) *FleetClient {
	t.Helper()
	c, err := DialUDP(addr, timeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &FleetClient{C: c}
}

// TestServeUDPServesConcurrently: while one call blocks in the
// backend, another client's call completes.
func TestServeUDPServesConcurrently(t *testing.T) {
	b := &blockingFleet{entered: make(chan struct{}), release: make(chan struct{})}
	addr := serveUDP(t, b, func(pc net.PacketConn) net.PacketConn { return pc })
	slow := udpFleetClient(t, addr, 10*time.Second)
	slowErr := make(chan error, 1)
	go func() {
		val, _, _, err := slow.Call("slow", 7, 1)
		if err == nil && val != 2 {
			err = errors.New("slow call computed the wrong value")
		}
		slowErr <- err
	}()
	<-b.entered
	fast := udpFleetClient(t, addr, 2*time.Second)
	val, _, _, err := fast.Call("fast", 7, 41)
	close(b.release)
	if err != nil || val != 42 {
		t.Fatalf("call beside a blocked one = %d, %v; want 42, nil", val, err)
	}
	if err := <-slowErr; err != nil {
		t.Fatalf("blocked call: %v", err)
	}
}

// failOnceConn fails its first WriteTo.
type failOnceConn struct {
	net.PacketConn
	failed atomic.Bool
}

func (c *failOnceConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	if !c.failed.Swap(true) {
		return 0, syscall.ENOBUFS
	}
	return c.PacketConn.WriteTo(b, addr)
}

// TestServeUDPSurvivesFailedWrite: a reply whose write fails is
// dropped, and the server keeps answering.
func TestServeUDPSurvivesFailedWrite(t *testing.T) {
	addr := serveUDP(t, &fakeFleet{}, func(pc net.PacketConn) net.PacketConn {
		return &failOnceConn{PacketConn: pc}
	})
	fc := udpFleetClient(t, addr, 200*time.Millisecond)
	if _, _, _, err := fc.Call("c0001", 7, 1); err == nil {
		t.Fatal("a call whose reply write failed was answered")
	}
	fc = udpFleetClient(t, addr, 2*time.Second)
	if val, _, _, err := fc.Call("c0001", 7, 2); err != nil || val != 3 {
		t.Fatalf("call after a failed write = %d, %v; want 3, nil", val, err)
	}
}

// TestDecodeInPlace: decoded arguments and results point into the
// decoded buffer, and decoding into a used struct clears what the new
// message does not set.
func TestDecodeInPlace(t *testing.T) {
	b := encodeCall(&CallMsg{XID: 1, Prog: 2, Vers: 3, Proc: 4, Args: []byte{1, 2, 3, 4}})
	var c CallMsg
	if err := c.Decode(b); err != nil {
		t.Fatal(err)
	}
	if &c.Args[0] != &b[len(b)-4] {
		t.Fatal("Args is a copy, not a view of the record")
	}

	var r ReplyMsg
	ok := encodeReply(&ReplyMsg{XID: 5, AcceptStat: AcceptSuccess, Results: []byte{0, 0, 0, 9}})
	if err := r.Decode(ok); err != nil || &r.Results[0] != &ok[len(ok)-4] {
		t.Fatalf("Results not decoded in place (err %v)", err)
	}
	denied := encodeReply(&ReplyMsg{XID: 6, Status: ReplyDenied, RejectStat: RejectAuthError, AuthStat: 1})
	if err := r.Decode(denied); err != nil {
		t.Fatal(err)
	}
	if r.Results != nil || r.AcceptStat != 0 || r.AuthStat != 1 {
		t.Fatalf("reused reply kept stale fields: %+v", r)
	}
}

// TestDispatchAppends: Dispatch appends after what the encoder holds
// and leaves it untouched when the call is undecodable.
func TestDispatchAppends(t *testing.T) {
	s := newIncrServer()
	call := encodeCall(&CallMsg{XID: 1, Prog: TestIncrProg, Vers: TestIncrVers, Proc: ProcIncr, Args: encodeUint32(5)})
	want, err := dispatch(s, call)
	if err != nil {
		t.Fatal(err)
	}
	var e xdr.Encoder
	e.PutUint32(0xFEEDFACE)
	if err := s.Dispatch(call, &e); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.Bytes()[4:], want) {
		t.Fatalf("appended reply = %x, want %x", e.Bytes()[4:], want)
	}
	if err := s.Dispatch([]byte{1, 2}, &e); err == nil || e.Len() != 4+len(want) {
		t.Fatalf("undecodable call: err %v, encoder %d bytes, want an error and %d bytes", err, e.Len(), 4+len(want))
	}
}

// BenchmarkServeTCP times one FleetClient.Call through ServeTCP on
// loopback TCP against the fake backend, client and server together.
func BenchmarkServeTCP(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Skipf("no loopback TCP in this environment: %v", err)
	}
	serveOn(b, l, &fakeFleet{})
	c, err := DialTCP(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	fc := &FleetClient{C: c}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := fc.Call("c0001", 7, uint32(i)); err != nil {
			b.Fatal(err)
		}
	}
}
