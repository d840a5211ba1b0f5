package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestSuiteMatchesBaseline reruns the gate suite of `make bench-json`
// (the embedded curves/suite documents) and requires the committed
// BENCH_fleet.json byte for byte. Every number in it is simulated time,
// so any difference is a change in behaviour.
func TestSuiteMatchesBaseline(t *testing.T) {
	docs, err := suiteDocs()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "BENCH_fleet.json")
	if err := runCurves(docs, &observability{}, out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "BENCH_fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("suite output differs from the committed BENCH_fleet.json; " +
			"refresh it with `make bench-json` only for an intended change")
	}
}

// TestTraceMatchesBaseline reruns the flight-recorded kill drill of
// `make trace` (curves/kill-drill.json: 2 shards with 2 replicas, 8
// clients, 120 calls per point, Zipf 1.5 keys, 6 epochs and kill:0@4)
// and requires the committed TRACE_fleet.json and TRACE_fleet.jsonl
// byte for byte. The exports record every barrier, fault and re-warm
// span with its simulated cycles, so any difference is a change in
// behaviour or in the trace format.
func TestTraceMatchesBaseline(t *testing.T) {
	dir := t.TempDir()
	obs, err := openObservability(filepath.Join(dir, "TRACE_fleet.json"),
		filepath.Join(dir, "TRACE_fleet.jsonl"), "", true)
	if err != nil {
		t.Fatal(err)
	}
	d, err := readCurve(filepath.Join("curves", "kill-drill.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := runCurves([]curveDoc{d}, obs, ""); err != nil {
		t.Fatal(err)
	}
	obs.export()
	for _, name := range []string{"TRACE_fleet.json", "TRACE_fleet.jsonl"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("trace export differs from the committed %s; "+
				"refresh it with `make trace` only for an intended change", name)
		}
	}
}
