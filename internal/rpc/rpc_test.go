package rpc

import (
	"bytes"
	"io"
	"net"
	"testing"
	"testing/quick"

	"repro/internal/xdr"
)

func newIncrServer() *Server {
	s := NewServer()
	s.Register(TestIncrProg, TestIncrVers, ProcIncr, incr)
	return s
}

// encodeCall, decodeCall, encodeReply and decodeReply run the in-place
// codec on a fresh encoder or struct each.
func encodeCall(c *CallMsg) []byte {
	var e xdr.Encoder
	c.Encode(&e)
	return e.Bytes()
}

func decodeCall(b []byte) (*CallMsg, error) {
	var c CallMsg
	if err := c.Decode(b); err != nil {
		return nil, err
	}
	return &c, nil
}

func encodeReply(r *ReplyMsg) []byte {
	var e xdr.Encoder
	r.Encode(&e)
	return e.Bytes()
}

func decodeReply(b []byte) (*ReplyMsg, error) {
	var r ReplyMsg
	if err := r.Decode(b); err != nil {
		return nil, err
	}
	return &r, nil
}

// dispatch returns the reply s.Dispatch appends to an empty encoder.
func dispatch(s *Server, call []byte) ([]byte, error) {
	var e xdr.Encoder
	err := s.Dispatch(call, &e)
	return e.Bytes(), err
}

// writeRecord writes msg to w as one record, the way a connection
// writes a message.
func writeRecord(w io.Writer, msg []byte) error {
	var e xdr.Encoder
	beginRecord(&e)
	e.PutRaw(msg)
	rec := e.Bytes()
	if err := markRecord(rec); err != nil {
		return err
	}
	_, err := w.Write(rec)
	return err
}

func encodeUint32(v uint32) []byte {
	e := xdr.NewEncoder()
	e.PutUint32(v)
	return e.Bytes()
}

func decodeUint32(t *testing.T, b []byte) uint32 {
	t.Helper()
	d := xdr.NewDecoder(b)
	v, err := d.Uint32()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCallMessageRoundTrip(t *testing.T) {
	in := &CallMsg{
		XID: 7, Prog: TestIncrProg, Vers: TestIncrVers, Proc: ProcIncr,
		Cred: OpaqueAuth{Flavor: AuthSys, Body: []byte("cred")},
		Args: encodeUint32(41),
	}
	out, err := decodeCall(encodeCall(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.XID != 7 || out.Prog != TestIncrProg || out.Vers != 1 || out.Proc != 1 {
		t.Fatalf("header mismatch: %+v", out)
	}
	if out.Cred.Flavor != AuthSys || string(out.Cred.Body) != "cred" {
		t.Fatalf("cred mismatch: %+v", out.Cred)
	}
	if !bytes.Equal(out.Args, in.Args) {
		t.Fatal("args mismatch")
	}
}

func TestReplyMessageRoundTrip(t *testing.T) {
	in := &ReplyMsg{XID: 9, Status: ReplyAccepted, AcceptStat: AcceptSuccess,
		Results: encodeUint32(42)}
	out, err := decodeReply(encodeReply(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.XID != 9 || out.AcceptStat != AcceptSuccess {
		t.Fatalf("reply mismatch: %+v", out)
	}
	if decodeUint32(t, out.Results) != 42 {
		t.Fatal("results mismatch")
	}
}

func TestDeniedReplyRoundTrip(t *testing.T) {
	in := &ReplyMsg{XID: 3, Status: ReplyDenied, RejectStat: RejectRPCMismatch,
		MismatchLow: 2, MismatchHigh: 2}
	out, err := decodeReply(encodeReply(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != ReplyDenied || out.RejectStat != RejectRPCMismatch ||
		out.MismatchLow != 2 || out.MismatchHigh != 2 {
		t.Fatalf("denied reply mismatch: %+v", out)
	}
}

func TestDispatchSuccess(t *testing.T) {
	s := newIncrServer()
	call := encodeCall(&CallMsg{XID: 1, Prog: TestIncrProg, Vers: TestIncrVers,
		Proc: ProcIncr, Args: encodeUint32(5)})
	replyBytes, err := dispatch(s, call)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := decodeReply(replyBytes)
	if err != nil {
		t.Fatal(err)
	}
	if reply.AcceptStat != AcceptSuccess {
		t.Fatalf("accept stat = %d", reply.AcceptStat)
	}
	if decodeUint32(t, reply.Results) != 6 {
		t.Fatal("incr(5) != 6")
	}
}

func TestDispatchProgUnavail(t *testing.T) {
	s := newIncrServer()
	call := encodeCall(&CallMsg{XID: 1, Prog: 999, Vers: 1, Proc: 1})
	rb, err := dispatch(s, call)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := decodeReply(rb)
	if r.AcceptStat != AcceptProgUnavail {
		t.Fatalf("accept stat = %d, want PROG_UNAVAIL", r.AcceptStat)
	}
}

func TestDispatchProgMismatch(t *testing.T) {
	s := newIncrServer()
	call := encodeCall(&CallMsg{XID: 1, Prog: TestIncrProg, Vers: 99, Proc: 1})
	rb, err := dispatch(s, call)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := decodeReply(rb)
	if r.AcceptStat != AcceptProgMismatch {
		t.Fatalf("accept stat = %d, want PROG_MISMATCH", r.AcceptStat)
	}
	if r.MismatchLow != TestIncrVers || r.MismatchHigh != TestIncrVers {
		t.Fatalf("mismatch range = %d-%d", r.MismatchLow, r.MismatchHigh)
	}
}

func TestDispatchProcUnavail(t *testing.T) {
	s := newIncrServer()
	call := encodeCall(&CallMsg{XID: 1, Prog: TestIncrProg, Vers: TestIncrVers, Proc: 42})
	rb, err := dispatch(s, call)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := decodeReply(rb)
	if r.AcceptStat != AcceptProcUnavail {
		t.Fatalf("accept stat = %d, want PROC_UNAVAIL", r.AcceptStat)
	}
}

func TestDispatchNullProcedure(t *testing.T) {
	s := newIncrServer()
	call := encodeCall(&CallMsg{XID: 1, Prog: TestIncrProg, Vers: TestIncrVers, Proc: 0})
	rb, err := dispatch(s, call)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := decodeReply(rb)
	if r.AcceptStat != AcceptSuccess || len(r.Results) != 0 {
		t.Fatalf("null proc: stat=%d results=%v", r.AcceptStat, r.Results)
	}
}

func TestDispatchVersionMismatchDenied(t *testing.T) {
	s := newIncrServer()
	// Build a call with rpcvers=3 by hand.
	e := xdr.NewEncoder()
	e.PutUint32(77)      // xid
	e.PutUint32(MsgCall) // call
	e.PutUint32(3)       // bad rpc version
	e.PutUint32(TestIncrProg)
	e.PutUint32(TestIncrVers)
	e.PutUint32(ProcIncr)
	e.PutUint32(AuthNone)
	e.PutOpaque(nil)
	e.PutUint32(AuthNone)
	e.PutOpaque(nil)
	rb, err := dispatch(s, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r, err := decodeReply(rb)
	if err != nil {
		t.Fatal(err)
	}
	if r.XID != 77 || r.Status != ReplyDenied || r.RejectStat != RejectRPCMismatch {
		t.Fatalf("reply = %+v, want RPC_MISMATCH denial", r)
	}
}

func TestDispatchGarbageDropped(t *testing.T) {
	s := newIncrServer()
	if _, err := dispatch(s, []byte{1, 2}); err == nil {
		t.Fatal("2-byte datagram produced a reply")
	}
}

func TestHandlerErrorBecomesSystemErr(t *testing.T) {
	s := NewServer()
	s.Register(1, 1, 1, func(_ []byte, res *xdr.Encoder) error {
		res.PutUint32(0xBAD) // partial results are discarded
		return xdr.ErrShort
	})
	rb, err := dispatch(s, encodeCall(&CallMsg{XID: 1, Prog: 1, Vers: 1, Proc: 1}))
	if err != nil {
		t.Fatal(err)
	}
	r, err := decodeReply(rb)
	if err != nil {
		t.Fatal(err)
	}
	if r.AcceptStat != AcceptSystemErr {
		t.Fatalf("accept stat = %d, want SYSTEM_ERR", r.AcceptStat)
	}
	if want := encodeReply(&ReplyMsg{XID: 1, AcceptStat: AcceptSystemErr}); !bytes.Equal(rb, want) {
		t.Fatalf("reply = %x, want %x", rb, want)
	}
}

func TestRecordMarking(t *testing.T) {
	var buf bytes.Buffer
	msg := []byte("0123456789")
	if err := writeRecord(&buf, msg); err != nil {
		t.Fatal(err)
	}
	// Header: last-fragment bit plus length 10.
	hdr := buf.Bytes()[:4]
	if hdr[0] != 0x80 || hdr[3] != 10 {
		t.Fatalf("header = %v", hdr)
	}
	got, err := ReadRecord(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("record mismatch")
	}
}

func TestRecordFragmentReassembly(t *testing.T) {
	// Two fragments: "abc" (not last) + "def" (last).
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 3})
	buf.WriteString("abc")
	buf.Write([]byte{0x80, 0, 0, 3})
	buf.WriteString("def")
	got, err := ReadRecord(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abcdef" {
		t.Fatalf("got %q", got)
	}
}

func TestPipeClientIncr(t *testing.T) {
	c, _, _ := pipeClient(t, newIncrServer())
	res, err := c.Call(TestIncrProg, TestIncrVers, ProcIncr, encodeUint32(10))
	if err != nil {
		t.Fatal(err)
	}
	if decodeUint32(t, res) != 11 {
		t.Fatal("incr(10) != 11")
	}
}

func TestTCPClientServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP in this environment: %v", err)
	}
	defer l.Close()
	go ServeTCP(l, newIncrServer())
	c, err := DialTCP(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := uint32(0); i < 5; i++ {
		res, err := c.Call(TestIncrProg, TestIncrVers, ProcIncr, encodeUint32(i))
		if err != nil {
			t.Fatal(err)
		}
		if decodeUint32(t, res) != i+1 {
			t.Fatalf("incr(%d) != %d", i, i+1)
		}
	}
}

// Property: the call codec round-trips arbitrary payloads and headers.
func TestCallCodecProperty(t *testing.T) {
	f := func(xid, prog, vers, proc uint32, args []byte) bool {
		in := &CallMsg{XID: xid, Prog: prog, Vers: vers, Proc: proc, Args: args}
		out, err := decodeCall(encodeCall(in))
		if err != nil {
			return false
		}
		return out.XID == xid && out.Prog == prog && out.Vers == vers &&
			out.Proc == proc && bytes.Equal(out.Args, args)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
