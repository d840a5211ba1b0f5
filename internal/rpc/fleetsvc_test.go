package rpc

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
)

// fakeFleet implements FleetBackend with incr semantics and a call log.
type fakeFleet struct {
	mu       sync.Mutex
	calls    int
	released []string
	fail     bool
}

func (ff *fakeFleet) FleetCall(key string, funcID uint32, args []uint32) (uint32, int32, int32, error) {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if ff.fail {
		return 0, 0, 0, errors.New("fleet closed")
	}
	ff.calls++
	if funcID != 7 {
		return 0, 38, 0, nil // ENOSYS-flavored errno reply, not an error
	}
	if len(args) != 1 {
		return 0, 0, 0, fmt.Errorf("want 1 arg, got %d", len(args))
	}
	return args[0] + 1, 0, int32(len(key) % 4), nil
}

func (ff *fakeFleet) Release(key string) error {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	ff.released = append(ff.released, key)
	return nil
}

func (ff *fakeFleet) FuncID(name string) (uint32, bool) {
	if name == "incr" {
		return 7, true
	}
	return 0, false
}

// TestFleetServicePipe exercises the full proc surface through
// ServeTCP over an in-memory pipe connection.
func TestFleetServicePipe(t *testing.T) {
	ff := &fakeFleet{}
	fc, _, _ := pipeFleetClient(t, ff)

	incr, err := fc.FuncID("incr")
	if err != nil {
		t.Fatalf("FuncID: %v", err)
	}
	if incr != 7 {
		t.Fatalf("FuncID = %d, want 7", incr)
	}
	if _, err := fc.FuncID("nope"); err == nil {
		t.Fatal("FuncID(nope) succeeded, want error")
	}

	val, errno, shard, err := fc.Call("c0001", incr, 41)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if val != 42 || errno != 0 {
		t.Fatalf("Call = (%d, errno %d), want (42, 0)", val, errno)
	}
	if shard != int32(len("c0001")%4) {
		t.Fatalf("shard = %d, want %d", shard, len("c0001")%4)
	}

	// A kernel errno is a normal reply, not a transport error.
	if _, errno, _, err = fc.Call("c0001", 99, 1); err != nil || errno != 38 {
		t.Fatalf("bad-func Call = errno %d, err %v; want errno 38, nil", errno, err)
	}

	if err := fc.Release("c0001"); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if len(ff.released) != 1 || ff.released[0] != "c0001" {
		t.Fatalf("released = %v, want [c0001]", ff.released)
	}

	// A backend error surfaces as an RPC system error.
	ff.fail = true
	if _, _, _, err := fc.Call("c0001", incr, 1); err == nil {
		t.Fatal("Call on failed backend succeeded, want system error")
	} else if !strings.Contains(err.Error(), "system error") {
		t.Fatalf("Call error = %v, want a system error", err)
	}
}

// TestFleetServiceTCP runs the same service over a real loopback TCP
// listener with concurrent clients — the daemon's serving path.
func TestFleetServiceTCP(t *testing.T) {
	ff := &fakeFleet{}
	s := NewServer()
	RegisterFleetService(s, ff)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeTCP(l, s)

	const clients, calls = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := DialTCP(l.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			fc := &FleetClient{C: cl}
			incr, err := fc.FuncID("incr")
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < calls; i++ {
				val, errno, _, err := fc.Call(fmt.Sprintf("c%04d", c), incr, uint32(i))
				if err != nil {
					errs <- err
					return
				}
				if errno != 0 || val != uint32(i)+1 {
					errs <- fmt.Errorf("client %d call %d: val %d errno %d", c, i, val, errno)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if ff.calls != clients*calls {
		t.Fatalf("backend saw %d calls, want %d", ff.calls, clients*calls)
	}
}
