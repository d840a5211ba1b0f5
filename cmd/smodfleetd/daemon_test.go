package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/measure"
	"repro/internal/reconcile"
	"repro/internal/rpc"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDaemonServeEditConverge is the end-to-end serve drill the CI
// smoke job scripts externally: boot on loopback TCP from a 4-shard
// spec, run a concurrent wall-clock client burst, edit the spec to 2
// shards, reload (the SIGHUP path), observe convergence via the
// /reconcile endpoint, and shut down cleanly with zero lost calls.
func TestDaemonServeEditConverge(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "fleet.json")
	addrPath := filepath.Join(dir, "addrs")
	write := func(doc string) {
		t.Helper()
		if err := os.WriteFile(specPath, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(`{"schema":"smod-fleet-spec/v1","shards":4}`)

	var (
		logMu sync.Mutex
		logs  []string
	)
	d, err := New(Config{
		SpecPath: specPath,
		TCPAddr:  "127.0.0.1:0",
		HTTPAddr: "127.0.0.1:0",
		Barrier:  20 * time.Millisecond,
		AddrFile: addrPath,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	hup := make(chan os.Signal, 1)
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(ctx, hup) }()

	// The address file records every bound listener.
	addrs, err := os.ReadFile(addrPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []string{"tcp=", "http="} {
		if !strings.Contains(string(addrs), proto) {
			t.Fatalf("addr file lacks %q:\n%s", proto, addrs)
		}
	}

	status := func() reconcile.Status {
		t.Helper()
		resp, err := http.Get("http://" + d.HTTPAddr() + "/reconcile")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st reconcile.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	waitFor(t, "initial convergence", 5*time.Second, func() bool {
		st := status()
		return st.Converged && len(st.Live) == 4
	})

	// /spec serves the canonical target document.
	resp, err := http.Get("http://" + d.HTTPAddr() + "/spec")
	if err != nil {
		t.Fatal(err)
	}
	specBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(specBody), `"shards": 4`) {
		t.Fatalf("/spec = %s, want shards 4", specBody)
	}

	// Concurrent wall-clock burst over real TCP sockets.
	st, err := measure.RunWallClockBurst(func() (*rpc.Client, error) {
		return rpc.DialTCP(d.TCPAddr())
	}, 4, 25)
	if err != nil {
		t.Fatalf("tcp burst: %v", err)
	}
	if st.Errors != 0 || st.TotalCalls != 100 {
		t.Fatalf("tcp burst lost calls: %+v", st)
	}

	// Live edit: 4 -> 2 shards via the SIGHUP reload path.
	write(`{"schema":"smod-fleet-spec/v1","shards":2}`)
	hup <- os.Interrupt // any signal value; Run only selects on the channel
	waitFor(t, "convergence to 2 shards", 5*time.Second, func() bool {
		st := status()
		return st.Converged && len(st.Live) == 2 && st.Target != nil && st.Target.Shards == 2
	})
	if got := d.f.LiveShards(); got != 2 {
		t.Fatalf("LiveShards = %d after edit, want 2", got)
	}
	// Drained capacity still answers: calls keep succeeding on 2 shards.
	if _, err := measure.RunWallClockBurst(func() (*rpc.Client, error) {
		return rpc.DialTCP(d.TCPAddr())
	}, 2, 10); err != nil {
		t.Fatalf("post-edit burst: %v", err)
	}

	// A broken spec edit is rejected and the good target kept.
	write(`{"schema":"smod-fleet-spec/v1","shards":2,"placement":"wat"}`)
	if err := d.Reload(); err == nil {
		t.Fatal("Reload accepted a broken spec")
	}
	if st := status(); st.Target == nil || st.Target.Shards != 2 || st.Target.Placement != "sticky" {
		t.Fatalf("broken edit replaced the target: %+v", st.Target)
	}

	// Graceful shutdown: Run returns nil, and new dials fail.
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if _, err := rpc.DialTCP(d.TCPAddr()); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
	logMu.Lock()
	joined := strings.Join(logs, "\n")
	logMu.Unlock()
	if !strings.Contains(joined, "shutdown: clean") {
		t.Fatalf("no clean-shutdown log line:\n%s", joined)
	}
}

// TestDaemonRejectsBadSpecAtBoot pins the fail-fast path.
func TestDaemonRejectsBadSpecAtBoot(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(specPath, []byte(`{"schema":"smod-fleet-spec/v9","shards":4}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{SpecPath: specPath, TCPAddr: "127.0.0.1:0"}); err == nil {
		t.Fatal("New accepted an unknown schema version")
	}
	if _, err := New(Config{SpecPath: filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("New accepted a missing spec file")
	}
}

// TestDaemonServesReplicatedCostAware boots from a spec that
// replicates hot keys and keeps migrating the rest (costaware with a
// replica cap), serves a burst over TCP, and reports the cap in the
// applied placement.
func TestDaemonServesReplicatedCostAware(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "fleet.json")
	doc := `{"schema":"smod-fleet-spec/v1","shards":4,"placement":"costaware","replicas":2}`
	if err := os.WriteFile(specPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{SpecPath: specPath, TCPAddr: "127.0.0.1:0", Barrier: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(ctx, nil) }()

	st, err := measure.RunWallClockBurst(func() (*rpc.Client, error) {
		return rpc.DialTCP(d.TCPAddr())
	}, 4, 25)
	if err != nil {
		t.Fatalf("tcp burst: %v", err)
	}
	if st.Errors != 0 || st.TotalCalls != 100 {
		t.Fatalf("tcp burst lost calls: %+v", st)
	}
	if got := d.Loop().Target().PlacementLabel(); got != "costaware/2" {
		t.Fatalf("target placement = %q, want costaware/2", got)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

// TestDaemonShutdownClosesConnections: once Run has returned, a client
// still connected over TCP is no longer served; its next call fails on
// the connection the daemon closed.
func TestDaemonShutdownClosesConnections(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(specPath, []byte(`{"schema":"smod-fleet-spec/v1","shards":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{SpecPath: specPath, TCPAddr: "127.0.0.1:0", Barrier: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(ctx, nil) }()

	cl, err := rpc.DialTCP(d.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fc := &rpc.FleetClient{C: cl}
	if _, err := fc.FuncID("incr"); err != nil {
		t.Fatalf("FuncID while serving: %v", err)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	_, err = fc.FuncID("incr")
	if err == nil {
		t.Fatal("a connected client was answered after Run returned")
	}
	if !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET) && !errors.Is(err, syscall.EPIPE) {
		t.Fatalf("call after Run returned: %v, want a closed connection", err)
	}
}

// TestDaemonRunLeavesNoGoroutine: once Run has returned, every
// goroutine the daemon started has exited (the listeners', the served
// connections', the reconcile loop's, the HTTP server's and the
// fleet's), even with an idle client still connected at shutdown.
func TestDaemonRunLeavesNoGoroutine(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(specPath, []byte(`{"schema":"smod-fleet-spec/v1","shards":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	d, err := New(Config{SpecPath: specPath, TCPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", Barrier: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- d.Run(ctx, nil) }()

	st, err := measure.RunWallClockBurst(func() (*rpc.Client, error) {
		return rpc.DialTCP(d.TCPAddr())
	}, 4, 25)
	if err != nil || st.Errors != 0 {
		t.Fatalf("tcp burst: %+v, %v", st, err)
	}
	idle, err := rpc.DialTCP(d.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, err := (&rpc.FleetClient{C: idle}).FuncID("incr"); err != nil {
		t.Fatalf("FuncID while serving: %v", err)
	}
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Get("http://" + d.HTTPAddr() + "/reconcile")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines 5 s after Run returned, %d before New:\n%s", runtime.NumGoroutine(), before, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
