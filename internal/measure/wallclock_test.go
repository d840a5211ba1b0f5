package measure

import (
	"net"
	"testing"

	"repro/internal/rpc"
)

// TestRunWallClockBurst serves a real fleet over loopback TCP and
// drives the wall-clock burst driver against it: every reply checks
// out, the stats add up, and the simulated-time side of the fleet saw
// exactly the burst's calls.
func TestRunWallClockBurst(t *testing.T) {
	f, err := openBenchFleet(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	s := rpc.NewServer()
	rpc.RegisterFleetService(s, f)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go rpc.ServeTCP(l, s)

	const clients, calls = 4, 20
	before := f.Stats()
	st, err := RunWallClockBurst(func() (*rpc.Client, error) {
		return rpc.DialTCP(l.Addr().String())
	}, clients, calls)
	if err != nil {
		t.Fatalf("burst: %v", err)
	}
	if st.Errors != 0 || st.TotalCalls != clients*calls {
		t.Fatalf("burst stats = %+v, want %d clean calls", st, clients*calls)
	}
	if st.Elapsed <= 0 || st.CallsPerSec <= 0 || st.P99Micros < st.P50Micros {
		t.Fatalf("implausible wall-clock stats: %+v", st)
	}

	// The simulated side counted the same traffic (plus nothing else).
	d := f.Stats().Delta(before)
	if got := d.TotalCalls; got != uint64(clients*calls) {
		t.Fatalf("fleet saw %d calls, want %d", got, clients*calls)
	}
}

// TestRunWallClockBurstArgs pins the argument contract.
func TestRunWallClockBurstArgs(t *testing.T) {
	if _, err := RunWallClockBurst(nil, 0, 1); err == nil {
		t.Fatal("zero clients accepted")
	}
	if _, err := RunWallClockBurst(nil, 1, 0); err == nil {
		t.Fatal("zero calls accepted")
	}
}
