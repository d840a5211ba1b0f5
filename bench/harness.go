package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs. run performs one
// repetition: a fixed amount of work, the same for every repetition
// with the same seed, so simulated results must repeat exactly.
type workload struct {
	name string
	why  string
	run  func(e *env) error
}

// size scales every workload: full is what BENCHMARK.json measures,
// quick keeps the same shape at a fraction of the work for the smoke
// test.
type size int

const (
	full size = iota
	quick
)

// env is what one repetition sees and fills in.
type env struct {
	seed int64
	size size
	tr   *tracer // nil when untraced
	span int     // the repetition's span id
	// traceOut is where the traced repetition's Chrome trace goes, ""
	// for none; a workload writes its own extra traces next to it.
	traceOut string
	rep      *rep
}

// rep is one repetition's measurements.
type rep struct {
	attempted, failed int
	// problems lists failed checks other than wrong replies.
	problems []string

	// Totals over the measured call phases.
	wall, cpu time.Duration
	mallocs   uint64
	setups    []time.Duration
	// speed is the calibration loop's rate around the repetition.
	speed float64

	// hostTime holds per-layer host times, in their metrics' units, and
	// layer other host-dependent per-layer values; the run reports their
	// median over repetitions, host times at the reference speed. exact
	// holds simulated values that must repeat bit for bit across
	// repetitions and between the traced and untraced runs.
	hostTime map[string]float64
	layer    map[string]float64
	exact    map[string]float64
}

func (r *rep) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// tally counts n calls, all correct or all failed.
func (r *rep) tally(n int, ok bool) {
	r.attempted += n
	if !ok {
		r.failed += n
	}
}

// phase is the host cost of one stretch of work.
type phase struct {
	wall, cpu time.Duration
	mallocs   uint64
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// calls runs fn as a measured call phase: its wall time, process CPU
// time and heap allocations make up the end-to-end host metrics.
func (e *env) calls(fn func() error) (phase, error) {
	c0, m0 := cpuTime(), mallocs()
	t0 := time.Now()
	err := fn()
	p := phase{wall: time.Since(t0), cpu: cpuTime() - c0, mallocs: mallocs() - m0}
	e.rep.wall += p.wall
	e.rep.cpu += p.cpu
	e.rep.mallocs += p.mallocs
	return p, err
}

// setup runs fn as one set-up of the workload, timed into setup_s.
func (e *env) setup(fn func() error) error {
	t0 := time.Now()
	err := fn()
	e.rep.setups = append(e.rep.setups, time.Since(t0))
	return err
}

// call times one call into a layer's public function and, when
// tracing, records it as a span of the repetition.
func (e *env) call(name string, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	t1 := time.Now()
	e.tr.add(name, e.span, 0, t0, t1, 0)
	return t1.Sub(t0), err
}

// result is one run of one workload: every metric the run measured.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
}

// runOptions selects how long to measure and whether to trace.
type runOptions struct {
	seed    int64
	seconds float64
	size    size
	trace   bool
	// minReps is the fewest measured repetitions, however short the run.
	minReps int
	// traceOut, when set, is where the traced repetition's Chrome trace
	// goes.
	traceOut string
}

// runWorkload runs repetitions of w for opts.seconds (and at least
// opts.minReps of them), then, when tracing, one more repetition with
// spans on. It checks the replies and the repeatability of every
// simulated value, and summarizes every metric.
func runWorkload(w workload, opts runOptions) (*result, error) {
	res := &result{Workload: w.name, Seed: opts.seed, Metrics: map[string]summary{}}
	if opts.trace {
		res.Trace = 1
	}
	var reps []*rep
	start := time.Now()
	speed := speedIndex()
	for len(reps) < opts.minReps || time.Since(start).Seconds() < opts.seconds {
		r, err := runRep(w, opts, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: repetition %d: %w", w.name, len(reps)+1, err)
		}
		after := speedIndex()
		r.speed, speed = (speed+after)/2, after
		reps = append(reps, r)
		if i := len(reps) - 1; i > 0 {
			sameExact(res, fmt.Sprintf("repetition %d", i+1), reps[0].exact, r.exact)
		}
	}
	res.Metrics["host_mem_mb"] = summarize([]float64{float64(rusage().Maxrss) / 1024}) // Maxrss is in KiB

	host := map[string][]float64{}
	add := func(k string, v float64) { host[k] = append(host[k], v) }
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
		res.Problems = append(res.Problems, r.problems...)
		f := r.speed / refSpeed
		add("host.speed_index", r.speed)
		add("host_calls_per_s", float64(r.attempted)/r.wall.Seconds()/f)
		add("host_cpu_ns_per_call", float64(r.cpu)/float64(r.attempted)*f)
		add("host_allocs_per_call", float64(r.mallocs)/float64(r.attempted))
		for _, d := range r.setups {
			add("setup_s", d.Seconds()*f)
		}
		for k, v := range r.hostTime {
			add(k, v*f)
		}
		for k, v := range r.layer {
			add(k, v)
		}
	}
	for k, vs := range host {
		res.Metrics[k] = summarize(vs)
	}
	for k, v := range reps[0].exact {
		res.Metrics[k] = summary{Median: v, Q1: v, Q3: v, N: len(reps)}
	}

	if opts.trace {
		if err := traceRep(w, opts, res, reps, speed); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

// traceRep runs the traced repetition: the tracing overhead against the
// untraced repetitions, each layer's share of the traced self time, and
// the same simulated values as the untraced run.
func traceRep(w workload, opts runOptions, res *result, reps []*rep, speed float64) error {
	tr := newTracer()
	r, err := runRep(w, opts, tr)
	if err != nil {
		return fmt.Errorf("%s: traced repetition: %w", w.name, err)
	}
	r.speed = (speed + speedIndex()) / 2
	res.Attempted += r.attempted
	res.Failed += r.failed
	res.Problems = append(res.Problems, r.problems...)
	sameExact(res, "the traced repetition", reps[0].exact, r.exact)

	// Wall time per call, scaled to a common host speed.
	perCall := func(r *rep) float64 { return float64(r.wall) / float64(r.attempted) * r.speed }
	var untraced []float64
	for _, u := range reps {
		untraced = append(untraced, perCall(u))
	}
	res.Metrics["trace.overhead_pct"] = summarize([]float64{100 * (perCall(r)/summarize(untraced).Median - 1)})
	self := tr.selfTime()
	var total time.Duration
	for _, d := range self {
		total += d
	}
	for _, l := range selfLayers {
		res.Metrics["trace.self_pct."+l] = summarize([]float64{100 * float64(self[l]) / float64(total)})
	}
	if opts.traceOut != "" {
		if err := tr.writeChrome(opts.traceOut); err != nil {
			return fmt.Errorf("%s: writing trace: %w", w.name, err)
		}
	}
	return nil
}

// runRep runs one repetition, traced when tr is non-nil.
func runRep(w workload, opts runOptions, tr *tracer) (*rep, error) {
	r := &rep{hostTime: map[string]float64{}, layer: map[string]float64{}, exact: map[string]float64{}}
	e := &env{seed: opts.seed, size: opts.size, tr: tr, rep: r}
	if tr != nil {
		e.traceOut = opts.traceOut
	}
	wid := tr.begin("bench.workload "+w.name, 0)
	e.span = tr.begin("bench.repetition", wid)
	err := w.run(e)
	tr.end(e.span)
	tr.end(wid)
	if err != nil {
		return nil, err
	}
	if r.attempted == 0 || r.wall <= 0 {
		return nil, fmt.Errorf("no calls measured")
	}
	return r, nil
}

// siblingPath names a second output file next to path: trace.json and
// "fleet" give trace.fleet.json.
func siblingPath(path, name string) string {
	const ext = ".json"
	if len(path) > len(ext) && path[len(path)-len(ext):] == ext {
		path = path[:len(path)-len(ext)]
	}
	return path + "." + name + ext
}

// sameExact records a problem for every simulated value that differs
// between two repetitions.
func sameExact(res *result, what string, want, got map[string]float64) {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if g, ok := got[k]; !ok || g != want[k] {
			res.Problems = append(res.Problems,
				fmt.Sprintf("%s: %s = %v, first repetition had %v", what, k, got[k], want[k]))
		}
	}
}
