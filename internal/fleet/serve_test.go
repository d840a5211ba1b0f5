package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/rpc"
	"repro/internal/xdr"
)

// servicePolicy admits sessions and, checked per call, only the
// libc's incr and getpid. Its other functions run for as long as their
// arguments ask: a served calloc(1798438912, 3) zeroes a gigabyte of
// simulated memory and holds its shard for minutes, and a served call
// has no deadline yet. Denied calls still reach the module and come
// back as an errno, so the fuzzed fleet serves every procedure.
const servicePolicy = `authorizer: "POLICY"
licensees: "fleet-client"
conditions: app_domain == "secmodule" &&
	(operation == "session" || function == "incr" || function == "getpid") -> "allow";
`

// serviceProvision registers the libc under servicePolicy.
func serviceProvision(k *kern.Kernel, sm *core.SMod, p backend.Profile) error {
	lib, err := core.LibCArchive()
	if err != nil {
		return err
	}
	_, err = sm.Register(&core.ModuleSpec{
		Name: "libc", Version: 1, Owner: "owner", Lib: lib,
		PolicySrc: []string{servicePolicy}, CheckPerCall: true,
	})
	return err
}

// serviceFleet opens a 2-shard fleet behind the fleet RPC service.
func serviceFleet(t *testing.T) *rpc.Server {
	t.Helper()
	f := newTestFleet(t, append(testOpts(2), WithProvision(serviceProvision))...)
	s := rpc.NewServer()
	rpc.RegisterFleetService(s, f)
	return s
}

// oneConnListener hands out one connection, then blocks until closed.
type oneConnListener struct {
	conn chan net.Conn
	done chan struct{}
	once sync.Once
}

func (l *oneConnListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conn:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *oneConnListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *oneConnListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// serviceRecord frames one fleet-program call as a record: the call
// header, then the arguments args appends.
func serviceRecord(xid, proc uint32, args func(e *xdr.Encoder)) []byte {
	var e xdr.Encoder
	e.PutUint32(0)
	m := rpc.CallMsg{XID: xid, Prog: rpc.FleetProg, Vers: rpc.FleetVers, Proc: proc}
	m.Encode(&e)
	args(&e)
	b := e.Bytes()
	binary.BigEndian.PutUint32(b, uint32(len(b)-4)|0x80000000)
	return b
}

// connEnds reports whether a connection loop stops after the records
// ReadRecord could split from a stream, given the error that ended the
// split: a record it cannot read (oversized) ends the connection, the
// end of the stream leaves it waiting for more.
func connEnds(err error) bool {
	return !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF)
}

// FuzzFleetService feeds an arbitrary byte stream over one net.Pipe
// connection to rpc.ServeTCP in front of a real fleet. Every reply the
// connection loop writes must equal, byte for byte and as one last
// fragment, what rpc.Server.Dispatch returns for the same record on an
// identically built fleet, so the loop's reused read and reply buffers
// never leak one call into the next. A record the loop cannot serve
// (oversized, or too broken to reply to) closes the connection. No
// input may panic or hang. The fleets run servicePolicy: the target
// fuzzes the service, not how long a module function may run.
func FuzzFleetService(f *testing.F) {
	probe, err := Open(testOpts(1)...)
	if err != nil {
		f.Fatal(err)
	}
	incr, _ := probe.FuncID("incr")
	probe.Close()
	call := func(xid uint32, key string, fn uint32, args ...uint32) []byte {
		return serviceRecord(xid, rpc.ProcFleetCall, func(e *xdr.Encoder) {
			e.PutString(key)
			e.PutUint32(fn)
			e.PutUint32s(args)
		})
	}
	funcID := serviceRecord(1, rpc.ProcFleetFuncID, func(e *xdr.Encoder) { e.PutString("incr") })
	release := serviceRecord(9, rpc.ProcFleetRelease, func(e *xdr.Encoder) { e.PutString("k1") })
	cat := func(recs ...[]byte) []byte { return bytes.Join(recs, nil) }
	f.Add(funcID)
	f.Add(cat(call(2, "k1", incr, 41), call(3, "k2", incr, 7), call(4, "k1", incr, 1)))
	f.Add(cat(call(5, "a-longer-key-than-the-others", incr, 1), release, call(6, "k1", 999, 1, 2, 3)))
	// Two fragments of one record, then a header past the size limit.
	one := call(7, "k3", incr, 5)
	body := one[4:]
	split := []byte{0, 0, 0, 8}
	split = append(split, body[:8]...)
	split = binary.BigEndian.AppendUint32(split, uint32(len(body)-8)|0x80000000)
	split = append(split, body[8:]...)
	f.Add(cat(split, []byte{0x80, 0x20, 0, 0}))
	// A truncated record; a record too short to hold a call.
	f.Add(one[:len(one)-3])
	f.Add(cat(call(8, "k1", incr, 2), []byte{0x80, 0, 0, 2, 1, 2}, funcID))
	f.Fuzz(func(t *testing.T, stream []byte) {
		// The reference: each record ReadRecord splits from the stream,
		// dispatched on a fresh encoder, until one ends the connection.
		ref := serviceFleet(t)
		var want [][]byte
		r := bytes.NewReader(stream)
		ends := false
		for {
			rec, err := rpc.ReadRecord(r, nil)
			if err != nil {
				ends = connEnds(err)
				break
			}
			var e xdr.Encoder
			if err := ref.Dispatch(rec, &e); err != nil {
				ends = true
				break
			}
			want = append(want, e.Bytes())
		}

		l := &oneConnListener{conn: make(chan net.Conn, 1), done: make(chan struct{})}
		defer l.Close()
		served := make(chan struct{})
		srv := serviceFleet(t)
		go func() {
			defer close(served)
			rpc.ServeTCP(l, srv)
		}()
		client, server := net.Pipe()
		defer client.Close()
		l.conn <- server
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			client.Write(stream)
		}()
		client.SetReadDeadline(time.Now().Add(10 * time.Second))
		for i, w := range want {
			var hdr [4]byte
			if _, err := io.ReadFull(client, hdr[:]); err != nil {
				t.Fatalf("reply %d of %d: %v", i+1, len(want), err)
			}
			if got := binary.BigEndian.Uint32(hdr[:]); got != uint32(len(w))|0x80000000 {
				t.Fatalf("reply %d: record mark %#x, want one last fragment of %d bytes", i+1, got, len(w))
			}
			got := make([]byte, len(w))
			if _, err := io.ReadFull(client, got); err != nil {
				t.Fatalf("reply %d body: %v", i+1, err)
			}
			if !bytes.Equal(got, w) {
				t.Fatalf("reply %d = %x, Dispatch returns %x", i+1, got, w)
			}
		}
		if ends {
			// The loop must have closed the connection: no further reply.
			if n, err := client.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("connection still open after a record it cannot serve: read %d, %v", n, err)
			}
		}
		client.Close()
		<-wrote
		l.Close()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("ServeTCP did not return: its connection loop hangs")
		}
	})
}
