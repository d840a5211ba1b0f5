package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"testing"
)

// TestWorkloadsSmoke runs every workload at the quick size, traced, and
// checks that the runs pass their own checks, that each printed result
// line names exactly the metrics BENCHMARK.json lists for its mode, and
// that every listed metric is measured by some workload.
func TestWorkloadsSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark has %q: %q", i, sp.Workloads[i], w.name, w.why)
		}
	}
	measured := map[string]bool{}
	for _, w := range workloads {
		res, err := runWorkload(w, runOptions{seed: 2, size: quick, trace: true, minReps: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("%s: %d of %d calls failed; %v", w.name, res.Failed, res.Attempted, res.Problems)
		}
		for name := range res.Metrics {
			measured[name] = true
		}
		for _, traced := range []bool{false, true} {
			defs := sp.EndToEnd
			if traced {
				defs = sp.PerLayer
			}
			line, _, err := resultLine(sp, []*result{res}, traced)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			var got struct {
				Attempted int `json:"attempted"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatalf("%s: %v in %s", w.name, err, line)
			}
			if got.Attempted < 1 {
				t.Errorf("%s: attempted %d", w.name, got.Attempted)
			}
			var want, have []string
			for _, d := range defs {
				want = append(want, d.Name)
				if m := got.Metrics[d.Name]; m.Unit != d.Unit {
					t.Errorf("%s: %s printed with unit %q, BENCHMARK.json says %q", w.name, d.Name, m.Unit, d.Unit)
				}
			}
			for name := range got.Metrics {
				have = append(have, name)
			}
			sort.Strings(want)
			sort.Strings(have)
			if fmt.Sprint(want) != fmt.Sprint(have) {
				t.Errorf("%s (traced %v): printed %v, want %v", w.name, traced, have, want)
			}
			if !traced {
				for _, d := range defs {
					if got.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.Name, got.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
	for _, d := range append(append([]metricDef(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !measured[d.Name] {
			t.Errorf("no workload measures %s", d.Name)
		}
		delete(measured, d.Name)
	}
	for name := range measured {
		t.Errorf("%s is measured but not in BENCHMARK.json", name)
	}
}

// TestSummarizeMatchesPython pins the quartiles to Python's
// statistics.quantiles(values, n=4), which the spreads are judged by.
func TestSummarizeMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(tc.in)
		if math.Abs(s.Q1-tc.q1) > 1e-12 || s.Median != tc.med || math.Abs(s.Q3-tc.q3) > 1e-12 || s.N != len(tc.in) {
			t.Errorf("summarize(%v) = %+v, want q1 %v median %v q3 %v", tc.in, s, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	tenth := 0.1
	lower := metricDef{Name: "m", Better: "lower", Bound: &tenth}
	higher := metricDef{Name: "m", Better: "higher", Bound: &tenth}
	layer := metricDef{Name: "m", Better: "lower"}
	tight := func(v float64) ([]float64, summary) {
		vs := []float64{v * 0.99, v, v, v * 1.01}
		return vs, summarize(vs)
	}
	wide := func(v float64) ([]float64, summary) {
		vs := []float64{v * 0.7, v, v, v * 1.3}
		return vs, summarize(vs)
	}
	// oneRun is a single run whose repetitions spread widely.
	oneRun := func(v float64) ([]float64, summary) {
		return []float64{v}, summary{Median: v, Q1: v * 0.7, Q3: v * 1.3, N: 5}
	}
	exact := func(v float64) ([]float64, summary) { return []float64{v}, summarize([]float64{v}) }
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b func(float64) ([]float64, summary)
		av   float64
		bv   float64
		want string
	}{
		{"within bound", lower, tight, tight, 100, 105, "same"},
		{"worse past bound", lower, tight, tight, 100, 120, "worse"},
		{"better past bound", lower, tight, tight, 100, 80, "better"},
		{"higher is better", higher, tight, tight, 100, 120, "better"},
		{"spread wider than bound", lower, wide, wide, 100, 120, "unresolved"},
		{"every run worse", lower, wide, wide, 100, 200, "worse"},
		{"one run a side, spread wider than bound", lower, oneRun, oneRun, 100, 60, "unresolved"},
		{"simulated value unchanged", layer, exact, exact, 7.359391, 7.359391, "same"},
		{"simulated value moved", layer, exact, exact, 7.359391, 7.36, "worse"},
	} {
		av, as := tc.a(tc.av)
		bv, bs := tc.b(tc.bv)
		if _, got := verdict(tc.d, as, bs, av, bv); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
