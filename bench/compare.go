package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// runSet is every run of one workload in an --out file.
type runSet map[string][]*result

func readRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		set[r.Workload] = append(set[r.Workload], &r)
	}
	return set, sc.Err()
}

// sample summarizes one metric over a set of runs: across runs when
// there are several, else within the one run's repetitions. values are
// the per-run medians.
func (s runSet) sample(workload, metric string) (summary, []float64, bool) {
	var values []float64
	var one summary
	for _, r := range s[workload] {
		if m, ok := r.Metrics[metric]; ok {
			values = append(values, m.Median)
			one = m
		}
	}
	switch len(values) {
	case 0:
		return summary{}, nil, false
	case 1:
		return one, values, true
	}
	return summarize(values), values, true
}

// verdict judges B against A for one metric. B is worse when its
// median is worse than A's by more than the bound, better when it is
// better by more than the bound, and the same in between — unless
// either side's quartile spread is wider than the bound, which leaves
// the comparison unresolved unless each side has several runs and every
// B run beats, or loses to, every A run. A per-layer metric has no
// bound; its spread stands in for one, so a simulated value, which has
// none, changes on any difference.
func verdict(d metricDef, a, b summary, av, bv []float64) (float64, string) {
	worse := func(x, y float64) bool { // is y worse than x?
		if d.Better == "higher" {
			return y < x
		}
		return y > x
	}
	change := relChange(d, a, b)
	spread := math.Max(a.spread(), b.spread())
	bound := spread
	if d.Bound != nil {
		bound = *d.Bound
	}
	if spread > bound {
		switch {
		case len(av) < 2 || len(bv) < 2:
		case all(av, bv, worse):
			return change, "worse"
		case all(av, bv, func(x, y float64) bool { return worse(y, x) }):
			return change, "better"
		}
		return change, "unresolved"
	}
	switch {
	case change > bound:
		return change, "worse"
	case change < -bound:
		return change, "better"
	}
	return change, "same"
}

// relChange is B's change from A as a share of A, positive when worse.
func relChange(d metricDef, a, b summary) float64 {
	if a.Median == 0 {
		if b.Median == 0 {
			return 0
		}
		return math.Inf(1)
	}
	c := (b.Median - a.Median) / math.Abs(a.Median)
	if d.Better == "higher" && c != 0 {
		c = -c
	}
	return c
}

// all reports whether rel holds for every pair (a, b).
func all(av, bv []float64, rel func(a, b float64) bool) bool {
	for _, a := range av {
		for _, b := range bv {
			if !rel(a, b) {
				return false
			}
		}
	}
	return true
}

func compareFiles(w io.Writer, sp *spec, pathA, pathB string) error {
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	var names []string
	for name := range a {
		if _, ok := b[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload is in both %s and %s", pathA, pathB)
	}
	fmt.Fprintf(w, "A = %s, B = %s; change is B against A, positive = worse\n", pathA, pathB)
	for _, name := range names {
		fmt.Fprintf(w, "\n== %s (A: %d runs, B: %d runs)\n", name, len(a[name]), len(b[name]))
		fmt.Fprintf(w, "%-34s %-32s %-32s %9s  %s\n", "metric", "A median [q1 q3]", "B median [q1 q3]", "change", "verdict")
		for _, d := range append(append([]metricDef(nil), sp.EndToEnd...), sp.PerLayer...) {
			sa, av, okA := a.sample(name, d.Name)
			sb, bv, okB := b.sample(name, d.Name)
			if !okA || !okB {
				continue
			}
			change, v := verdict(d, sa, sb, av, bv)
			fmt.Fprintf(w, "%-34s %-32s %-32s %+8.2f%%  %s\n", d.Name, quartiles(sa), quartiles(sb), 100*change, v)
		}
	}
	return nil
}

func quartiles(s summary) string {
	return fmt.Sprintf("%.5g [%.5g %.5g]", s.Median, s.Q1, s.Q3)
}
