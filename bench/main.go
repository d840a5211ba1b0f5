// Command smodperf is the repository's benchmark: four workloads that
// time every call the benchmark makes into the layers of the SecModule
// reproduction, on the host clock, next to the simulated results those
// calls produce. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md in this directory maps each metric
// to its layer and workload.
//
// Run it from the repository root:
//
//	bash bench/run.sh                                  # every workload
//	bash bench/run.sh --workload fig8 --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload serve-tcp --trace 1 --trace-out bench/out/trace.json
//	bash bench/run.sh --out bench/out/a.jsonl          # append results for --compare
//	bash bench/run.sh --compare bench/out/a.jsonl bench/out/b.jsonl
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics — the end-to-end ones with
// --trace 0, the per-layer ones with --trace 1. A failed check exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

var workloads = []workload{fig8, fleetSkew, sessionChurn, serveTCP}

// selfLayers are the layers the traced run reports self time for: the
// benchmark's own code and each layer it calls into.
var selfLayers = []string{"bench", "measure", "fleet", "rpc", "core", "kern"}

// spec is BENCHMARK.json: the workloads and the metrics with their
// units, directions and bounds.
type spec struct {
	RunSeconds int         `json:"run_seconds"`
	Workloads  []specEntry `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smodperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "seed the workload inputs are made from")
		seconds  = fs.Float64("seconds", 0, "how long to measure each workload (0: run_seconds from the spec)")
		traceArg = fs.Int("trace", 0, "0: report end-to-end metrics; 1: also run a traced repetition and report per-layer metrics")
		traceOut = fs.String("trace-out", "", "write the traced repetition as a Chrome trace to this file (implies --trace 1)")
		out      = fs.String("out", "", "append every run's metrics with quartiles to this JSON-lines file")
		specPath = fs.String("spec", "BENCHMARK.json", "the benchmark definition")
		compare  = fs.Bool("compare", false, "compare two --out files given as arguments, A then B")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "smodperf:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "smodperf: --compare takes two files, A then B")
			return 2
		}
		if err := compareFiles(stdout, sp, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "smodperf:", err)
			return 2
		}
		return 0
	}
	if fs.NArg() != 0 || (*traceArg != 0 && *traceArg != 1) {
		fs.Usage()
		return 2
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(stderr, "smodperf: unknown workload %q\n", *name)
		return 2
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
	}
	opts := runOptions{seed: *seed, seconds: *seconds, size: full, trace: *traceArg == 1 || *traceOut != "",
		minReps: 3}

	var results []*result
	for _, w := range chosen {
		o := opts
		if o.trace && *traceOut != "" {
			o.traceOut = *traceOut
			if len(chosen) > 1 {
				o.traceOut = siblingPath(*traceOut, w.name)
			}
		}
		res, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintln(stderr, "smodperf:", err)
			return 1
		}
		printTable(stdout, sp, res)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fmt.Fprintln(stderr, "smodperf:", err)
				return 1
			}
		}
		results = append(results, res)
	}
	line, correct, err := resultLine(sp, results, opts.trace)
	if err != nil {
		fmt.Fprintln(stderr, "smodperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// resultLine renders the final JSON line. For one workload it carries
// exactly the metrics BENCHMARK.json lists for the mode; a per-layer
// metric of a layer the workload bypasses reads 0. For several, each
// name is prefixed with its workload.
func resultLine(sp *spec, results []*result, traced bool) (string, bool, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	defs := sp.EndToEnd
	if traced {
		defs = sp.PerLayer
	}
	for _, res := range results {
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for _, d := range defs {
			s, ok := res.Metrics[d.Name]
			if !ok && !traced {
				return "", false, fmt.Errorf("%s: end-to-end metric %s not measured", res.Workload, d.Name)
			}
			key := d.Name
			if len(results) > 1 {
				key = res.Workload + "/" + d.Name
			}
			line.Metrics[key] = value{Value: s.Median, Unit: d.Unit}
		}
	}
	b, err := json.Marshal(line)
	return string(b), line.Correct, err
}

// printTable prints one run's metrics with quartiles, the per-layer
// ones after the end-to-end ones, then any failed check.
func printTable(w io.Writer, sp *spec, res *result) {
	fmt.Fprintf(w, "== %s (seed %d): %d calls, %d failed\n", res.Workload, res.Seed, res.Attempted, res.Failed)
	fmt.Fprintf(w, "%-34s %14s %14s %14s %4s  %s\n", "metric", "median", "q1", "q3", "n", "unit")
	for _, group := range [][]metricDef{sp.EndToEnd, sp.PerLayer} {
		for _, d := range group {
			s, ok := res.Metrics[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-34s %14.6g %14.6g %14.6g %4d  %s\n", d.Name, s.Median, s.Q1, s.Q3, s.N, d.Unit)
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
}

func appendResult(path string, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
