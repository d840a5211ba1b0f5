package rpc

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/xdr"
)

func TestAuthBodyLimitEnforced(t *testing.T) {
	// RFC 1831 caps opaque_auth bodies at 400 bytes.
	e := xdr.NewEncoder()
	e.PutUint32(1) // xid
	e.PutUint32(MsgCall)
	e.PutUint32(Version)
	e.PutUint32(1)
	e.PutUint32(1)
	e.PutUint32(1)
	e.PutUint32(AuthSys)
	e.PutOpaque(make([]byte, 401))
	e.PutUint32(AuthNone)
	e.PutOpaque(nil)
	if _, err := decodeCall(e.Bytes()); err == nil {
		t.Fatal("401-byte auth body accepted")
	}
}

func TestWriteRecordRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := writeRecord(&buf, make([]byte, maxRecord+1)); err == nil {
		t.Fatal("oversized record accepted")
	}
}

func TestReadRecordRejectsOversizeFragment(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0x80, 0xFF, 0xFF, 0xFF}) // last fragment, huge length
	if _, err := ReadRecord(&buf, nil); err == nil {
		t.Fatal("oversized fragment accepted")
	}
}

func TestReadRecordTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0x80, 0, 0, 10})
	buf.WriteString("abc") // 3 of 10 bytes
	if _, err := ReadRecord(&buf, nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want unexpected EOF", err)
	}
}

func TestDecodeReplyBadStatus(t *testing.T) {
	e := xdr.NewEncoder()
	e.PutUint32(1)
	e.PutUint32(MsgReply)
	e.PutUint32(99)
	if _, err := decodeReply(e.Bytes()); err == nil {
		t.Fatal("reply status 99 accepted")
	}
}

func TestDecodeCallOnReplyFails(t *testing.T) {
	r := encodeReply(&ReplyMsg{XID: 1, Status: ReplyAccepted, AcceptStat: AcceptSuccess})
	if _, err := decodeCall(r); err == nil {
		t.Fatal("reply decoded as call")
	}
}

func TestDecodeReplyOnCallFails(t *testing.T) {
	c := encodeCall(&CallMsg{XID: 1, Prog: 1, Vers: 1, Proc: 1})
	if _, err := decodeReply(c); err == nil {
		t.Fatal("call decoded as reply")
	}
}

func TestClientSkipsStaleXIDs(t *testing.T) {
	// A server end that answers the call with a stale reply record
	// first, then the right one.
	srv := newIncrServer()
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		m, err := newRecordReader(server).next()
		if err != nil {
			return
		}
		call, err := decodeCall(m)
		if err != nil {
			return
		}
		stale := encodeReply(&ReplyMsg{XID: call.XID + 1000, Status: ReplyAccepted,
			AcceptStat: AcceptSuccess, Results: encodeUint32(0xBAD)})
		real, err := dispatch(srv, m)
		if err != nil {
			return
		}
		if writeRecord(server, stale) == nil {
			writeRecord(server, real)
		}
	}()
	c := newStreamClient(client)
	defer func() {
		c.Close()
		<-done
	}()
	res, err := c.Call(TestIncrProg, TestIncrVers, ProcIncr, encodeUint32(4))
	if err != nil {
		t.Fatal(err)
	}
	if decodeUint32(t, res) != 5 {
		t.Fatal("stale reply was not skipped")
	}
}

func TestProgMismatchReportedToCaller(t *testing.T) {
	c, _, _ := pipeClient(t, newIncrServer())
	_, err := c.Call(TestIncrProg, 9, ProcIncr, nil)
	if err == nil || !containsSub(err.Error(), "version mismatch") {
		t.Fatalf("err = %v, want version mismatch", err)
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// Property: reply codec round-trips accepted-success payloads.
func TestReplyCodecProperty(t *testing.T) {
	f := func(xid uint32, results []byte) bool {
		in := &ReplyMsg{XID: xid, Status: ReplyAccepted, AcceptStat: AcceptSuccess, Results: results}
		out, err := decodeReply(encodeReply(in))
		if err != nil {
			return false
		}
		return out.XID == xid && out.AcceptStat == AcceptSuccess && bytes.Equal(out.Results, results)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: record marking round-trips arbitrary payloads under the
// size cap.
func TestRecordMarkingProperty(t *testing.T) {
	f := func(payload []byte) bool {
		var buf bytes.Buffer
		if err := writeRecord(&buf, payload); err != nil {
			return len(payload) > maxRecord
		}
		got, err := ReadRecord(&buf, nil)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fragHeader is the record-marking header of an n-byte fragment.
func fragHeader(n int, last bool) []byte {
	h := uint32(n)
	if last {
		h |= 0x80000000
	}
	return []byte{byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h)}
}

// TestReadRecordAllocatesAsBytesArrive: a header claiming the full
// record limit, followed by EOF, costs memory for at most one read
// chunk, not for the size the header claims.
func TestReadRecordAllocatesAsBytesArrive(t *testing.T) {
	r := bytes.NewReader(fragHeader(maxRecord, true))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadRecord(r, nil)
	runtime.ReadMemStats(&after)
	if err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<10 {
		t.Fatalf("ReadRecord allocated %d bytes before any body arrived, want < %d", got, 128<<10)
	}
}

// TestReadRecordChunkedFragments: fragments longer than one read chunk
// reassemble exactly, and a body cut off at a chunk boundary is an
// unexpected EOF, as it is anywhere else in the body.
func TestReadRecordChunkedFragments(t *testing.T) {
	body := make([]byte, 3*readChunk+5)
	for i := range body {
		body[i] = byte(i * 7)
	}
	split := readChunk + 1
	var buf bytes.Buffer
	buf.Write(fragHeader(split, false))
	buf.Write(body[:split])
	buf.Write(fragHeader(len(body)-split, true))
	buf.Write(body[split:])
	got, err := ReadRecord(&buf, nil)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("reassembled %d bytes (err %v), want the %d-byte body", len(got), err, len(body))
	}

	buf.Reset()
	buf.Write(fragHeader(2*readChunk, true))
	buf.Write(body[:readChunk])
	if _, err := ReadRecord(&buf, nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("body cut at a chunk boundary: err = %v, want unexpected EOF", err)
	}
}
