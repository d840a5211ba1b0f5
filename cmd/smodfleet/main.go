// Command smodfleet measures a fleet of simulated kernels, extending
// the paper's single-kernel Figure 8 latencies to sharded smod_call
// traffic. It has three modes.
//
// By default it runs the scaling sweep: the same SecModule libc
// traffic, sharded by client key, for each -shards count and two
// workloads:
//
//   - closed-loop: a fixed set of warm sticky clients, each issuing its
//     next call only after the previous returned (steady state);
//   - open-loop: every call arrives under a fresh client key and pays
//     full session setup, with warm-session capacity bounded per shard
//     and reclaimed LRU (session churn).
//
// -curve runs the open-loop latency-vs-offered-load curve that one
// curve document describes (schema smod-curve/v1; see README "Open-loop
// load curves"): a fleet spec, the workload every point offers it, and
// the utilization grid that turns a capacity probe into offered rates.
// Arrivals follow a Poisson (or fixed-interval) schedule in simulated
// time, each call's latency is recorded on its shard's clock, and the
// table reports p50/p95/p99 per offered rate with the saturation knee
// marked. -suite runs the CI gate suite, the eleven documents of
// curves/suite embedded in the binary, and prints each pair's knees
// side by side.
//
// -json writes the run's BENCH document (the scaling rows, or one curve
// per document, named after it); nothing is written without it. -trace
// and -events export a curve run's flight recorder, and -metrics serves
// the metrics registry while any run is in flight.
//
// Usage:
//
//	smodfleet                              # default scaling sweep
//	smodfleet -shards 1,2,4,8 -clients 16 -calls 100
//	smodfleet -curve cmd/smodfleet/curves/loadcurve.json
//	smodfleet -curve cmd/smodfleet/curves/kill-drill.json -trace TRACE_fleet.json
//	smodfleet -suite -json BENCH_fleet.json
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"repro/internal/backend"
	"repro/internal/chaos"
	"repro/internal/clock"
	"repro/internal/measure"
	"repro/internal/metrics"
	"repro/internal/spec"
	"repro/internal/trace"
)

func main() {
	var (
		shardList   = flag.String("shards", "1,2,4,8", "comma-separated shard counts to sweep")
		clients     = flag.Int("clients", 16, "closed-loop sticky clients")
		calls       = flag.Int("calls", 50, "closed-loop calls per client")
		openCalls   = flag.Int("opencalls", 64, "open-loop total calls (fresh key each)")
		maxSessions = flag.Int("maxsessions", 8, "open-loop warm-session cap per shard (LRU reclaim)")
		openLoop    = flag.Bool("open", true, "also run the open-loop (session churn) sweep")

		curvePath = flag.String("curve", "", "run the load curve this smod-curve/v1 document describes instead of the scaling sweep")
		suite     = flag.Bool("suite", false, "run the CI gate suite: the eleven embedded curves/suite documents, in BENCH order")
		jsonPath  = flag.String("json", "", "write the run's BENCH document (BENCH_fleet.json format) to this path")

		tracePath   = flag.String("trace", "", "write the run's flight recorder as Chrome trace-event JSON (Perfetto-loadable) to this path (-curve/-suite modes)")
		eventsPath  = flag.String("events", "", "write the run's flight recorder as a JSONL event log to this path (-curve/-suite modes)")
		metricsAddr = flag.String("metrics", "", "serve /metrics (Prometheus text), /debug/vars and /debug/pprof on this address for the duration of the run")
	)
	flag.Parse()

	var docs []curveDoc
	var err error
	switch {
	case *suite && *curvePath != "":
		err = fmt.Errorf("-curve and -suite are exclusive")
	case *suite:
		docs, err = suiteDocs()
	case *curvePath != "":
		var d curveDoc
		d, err = readCurve(*curvePath)
		docs = []curveDoc{d}
	}
	if err != nil {
		fatal(err)
	}

	obs, err := openObservability(*tracePath, *eventsPath, *metricsAddr, docs != nil)
	if err != nil {
		fatal(err)
	}
	defer obs.export()

	if docs != nil {
		if err := runCurves(docs, obs, *jsonPath); err != nil {
			fatal(err)
		}
		return
	}

	shards, err := parseList(*shardList, 1)
	if err != nil {
		fatal(err)
	}
	maxShards := shards[0]
	for _, n := range shards {
		if n > maxShards {
			maxShards = n
		}
	}
	fmt.Println(clock.MachineInfo())
	fmt.Printf("\nFleet scaling: %d kernels max, sharded smod_call traffic (simulated time)\n\n", maxShards)

	rows, err := scalingRows(shards, *clients, *calls, *openCalls, *maxSessions, *openLoop)
	if err != nil {
		fatal(err)
	}
	fmt.Print(measure.FleetScalingTable(rows))
	fmt.Println("\nspeedup is aggregate calls/sec relative to each workload's first row;")
	fmt.Println("open-loop pays per-call session setup (find + policy + forced fork), closed-loop reuses warm sessions.")
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, measure.NewBenchFleetCurves(nil, rows)); err != nil {
			fatal(err)
		}
	}
}

// observability carries the optional flight recorder, metrics registry,
// and export paths of one CLI run — groundwork for smodfleetd, where
// the same recorder and endpoints outlive a single sweep.
type observability struct {
	rec        *trace.Recorder
	reg        *metrics.Registry
	tracePath  string
	eventsPath string
}

// openObservability builds whatever the -trace/-events/-metrics flags
// ask for and starts the metrics endpoint. The trace flags require a
// curve mode: only curve fleets take the recorder today.
func openObservability(tracePath, eventsPath, metricsAddr string, curveMode bool) (*observability, error) {
	o := &observability{tracePath: tracePath, eventsPath: eventsPath}
	if tracePath != "" || eventsPath != "" {
		if !curveMode {
			return nil, fmt.Errorf("-trace/-events need -curve or -suite")
		}
		o.rec = trace.New(trace.Config{})
	}
	if metricsAddr != "" {
		o.reg = metrics.NewRegistry()
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return nil, err
		}
		fmt.Printf("metrics: serving /metrics, /debug/vars, /debug/pprof on http://%s\n", ln.Addr())
		go func() { _ = http.Serve(ln, metrics.NewMux(o.reg)) }()
	}
	return o, nil
}

// export writes the flight recorder to the -trace/-events paths: the
// Chrome trace loads in Perfetto (ui.perfetto.dev), the JSONL log is
// one event per line for ad-hoc tooling.
func (o *observability) export() {
	if o.rec == nil {
		return
	}
	events := o.rec.Snapshot()
	emitted, dropped := o.rec.Counts()
	write := func(path string, enc func(io.Writer, []trace.Event) error) {
		f, err := os.Create(path)
		if err == nil {
			if werr := enc(f, events); werr != nil {
				err = werr
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "smodfleet: trace export:", err)
			return
		}
		fmt.Printf("wrote %s (%d events held; %d emitted, %d overwritten)\n",
			path, len(events), emitted, dropped)
	}
	if o.tracePath != "" {
		write(o.tracePath, trace.WriteChromeTrace)
		fmt.Println("open the trace at https://ui.perfetto.dev")
	}
	if o.eventsPath != "" {
		write(o.eventsPath, trace.WriteJSONL)
	}
}

// scalingRows runs the closed-loop (and optionally open-loop) sweep.
func scalingRows(shards []int, clients, calls, openCalls, maxSessions int, openLoop bool) ([]measure.ThroughputStats, error) {
	var rows []measure.ThroughputStats
	for _, n := range shards {
		row, err := measure.RunFleetClosedLoop(n, clients, calls)
		if err != nil {
			return nil, fmt.Errorf("closed-loop %d shards: %w", n, err)
		}
		rows = append(rows, row)
	}
	if openLoop {
		for _, n := range shards {
			row, err := measure.RunFleetOpenLoop(n, openCalls, maxSessions)
			if err != nil {
				return nil, fmt.Errorf("open-loop %d shards: %w", n, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// autoRates estimates the fleet's capacity and returns the utils
// fractions of it as the offered-rate sweep. Homogeneous fleets probe
// with a short closed-loop run (without skew, migration or caching, so
// skewed/rebalanced curves sweep the same rates and their knees are
// comparable); heterogeneous fleets sum per-profile capacities from
// backend calibration stretches. The grid is a function of the config
// alone, so a curve sweeps the same rates alone as inside the suite.
func autoRates(cfg measure.LoadCurveConfig, utils []float64) ([]float64, error) {
	var capacity float64
	if cfg.Fleet.Mix != "" {
		as, err := cfg.Fleet.Assignments()
		if err != nil {
			return nil, err
		}
		total, ests, err := backend.FleetCapacity(as, 40)
		if err != nil {
			return nil, fmt.Errorf("mixed-fleet calibration: %w", err)
		}
		fmt.Printf("\nbackend calibration (%s):\n", cfg.Fleet.Mix)
		for _, a := range as {
			est := ests[a.Profile.Name]
			fmt.Printf("  shard %d %-8s %6.1f us/call  ~%8.0f calls/sec\n",
				a.Shard, a.Profile.Name,
				float64(est.CyclesPerCall)/clock.CyclesPerMicrosecond, est.CallsPerSec)
		}
		fmt.Printf("  fleet capacity ~%.0f calls/sec\n", total)
		capacity = total
	} else {
		shards := cfg.Shards()
		probe, err := measure.RunFleetClosedLoop(shards, cfg.Clients, 30)
		if err != nil {
			return nil, fmt.Errorf("capacity probe: %w", err)
		}
		capacity = float64(shards) * 1e6 / probe.MicrosPerCall
		fmt.Printf("\ncapacity probe: %.1f us/call serial => ~%.0f calls/sec across %d shards\n",
			probe.MicrosPerCall, capacity, shards)
	}
	rates := make([]float64, len(utils))
	for i, u := range utils {
		rates[i] = u * capacity
	}
	return rates, nil
}

// describeCurve prints one curve's workload header; cfg.Fleet is
// validated.
func describeCurve(cfg measure.LoadCurveConfig) {
	fs := &cfg.Fleet
	fmt.Printf("\nOpen-loop load curve: %d shards, %d warm clients, %d %s arrivals per point (simulated time)\n",
		cfg.Shards(), cfg.Clients, cfg.Calls, cfg.Kind)
	if fs.Mix != "" {
		fmt.Printf("backend mix: %s\n", fs.Mix)
	}
	if cfg.ZipfS > 0 {
		fmt.Printf("key popularity: Zipf(s=%.2f) over %d keys, %d epoch(s) per point\n",
			cfg.ZipfS, cfg.Clients, max(cfg.Epochs, 1))
	}
	if fs.Placement != spec.PlacementSticky || fs.ResultCache > 0 {
		fmt.Printf("placement: %s, cache %d entries/shard, argscard %d\n",
			fs.PlacementLabel(), fs.ResultCache, cfg.ArgsCardinality)
	}
	if fs.Replicas > 0 {
		fmt.Printf("replication: idempotent hot keys served from up to %d shards (heat-sized at epoch barriers)\n",
			fs.Replicas)
	}
	if cfg.Chaos != "" {
		budget := fs.RewarmBudgetCycles
		if budget == 0 {
			budget = chaos.DefaultRewarmBudgetCycles
		}
		fmt.Printf("chaos drill: %s replayed at every point (re-warm budget %d cycles)\n", cfg.Chaos, budget)
	}
	if a := fs.Autoscale; a != nil {
		fmt.Printf("elastic: autoscaled %d..%d shards to hold p99 <= %.0f us at epoch barriers\n",
			a.Min, a.Max, a.SLOMicros)
	}
	if cfg.WarmupEpochs > 0 {
		fmt.Printf("warm-up: first %d epoch(s) per point excluded from latency quantiles\n", cfg.WarmupEpochs)
	}
	if len(cfg.Tenants) > 0 {
		fmt.Printf("tenancy: knee %d, classes:", cfg.TenantKnee)
		for _, tl := range cfg.Tenants {
			fmt.Printf(" %s(w=%d c=%d boost=%g)", tl.Name, max(tl.Weight, 1), tl.Clients, tl.Boost)
		}
		fmt.Println()
	}
	fmt.Println()
}

// reportCurve prints one measured curve: the table, migration, replica
// and cache totals, per-profile utilization at the knee, and the knee
// histogram.
func reportCurve(cfg measure.LoadCurveConfig, points []measure.LoadPoint) {
	fmt.Print(measure.LoadCurveTable(points))
	var migr, hits, misses, radd, rdrop uint64
	for _, p := range points {
		migr += p.Migrations
		hits += p.CacheHits
		misses += p.CacheMisses
		radd += p.ReplicasAdded
		rdrop += p.ReplicasDropped
	}
	if migr > 0 || hits+misses > 0 {
		fmt.Printf("\nplacement totals: %d migrations, %d cache hits / %d misses\n", migr, hits, misses)
	}
	if radd > 0 || rdrop > 0 {
		fmt.Printf("replication totals: %d replicas warmed in, %d drained\n", radd, rdrop)
	}
	if cfg.Chaos != "" {
		var rewarms, rewarmMax uint64
		down := 0
		for _, p := range points {
			rewarms += p.Rewarms
			if p.RewarmMaxCycles > rewarmMax {
				rewarmMax = p.RewarmMaxCycles
			}
			if p.ShardsDown > down {
				down = p.ShardsDown
			}
		}
		fmt.Printf("chaos totals: %d shard(s) down per point, %d orphan re-warms, slowest re-warm %d cycles\n",
			down, rewarms, rewarmMax)
	}
	if a := cfg.Fleet.Autoscale; a != nil {
		fmt.Printf("\nelastic sizing per offered rate (SLO %.0f us):\n", a.SLOMicros)
		for _, p := range points {
			held := "held"
			if p.P99Micros > a.SLOMicros {
				held = "MISSED"
			}
			fmt.Printf("  %8.0f/s  avg %.2f shards (cost %.2f)  +%d/-%d resizes  p99 %8.1f us  SLO %s\n",
				p.OfferedPerSec, p.AvgShards, p.CostUnits,
				p.ShardsAdded, p.ShardsDrained, p.P99Micros, held)
		}
	}
	if len(cfg.Tenants) > 0 {
		fmt.Println("\nper-tenant outcome per offered rate:")
		for _, p := range points {
			for _, tl := range cfg.Tenants {
				tp := p.Tenants[tl.Name]
				fmt.Printf("  %8.0f/s  %-10s w=%d  offered %8.0f/s  %5d served  %5d shed  p99 %10.1f us\n",
					p.OfferedPerSec, tl.Name, tp.Weight, tp.Offered, tp.Calls, tp.Shed, tp.P99Micros)
			}
		}
	}
	k := measure.KneeIndex(points)
	at := k // the knee, or the last point of a sweep that never saturates
	if at < 0 {
		at = len(points) - 1
	}
	if cfg.Fleet.Mix != "" {
		fmt.Printf("\nper-profile utilization at %.0f calls/sec offered:\n", points[at].OfferedPerSec)
		for _, pl := range points[at].Profiles {
			fmt.Printf("  %-8s %d shard(s)  %6d calls  %5.1f%% busy\n",
				pl.Name, pl.Shards, pl.Calls, 100*pl.Utilization)
		}
	}
	if p := points[at]; p.ReplicaKey != "" {
		fmt.Printf("\nper-replica hits for hottest key %q at %.0f calls/sec offered:\n",
			p.ReplicaKey, p.OfferedPerSec)
		for _, h := range p.ReplicaHits {
			fmt.Printf("  shard %d  %6d calls\n", h.Shard, h.Calls)
		}
	}
	if k >= 0 {
		fmt.Printf("\n* saturation knee: achieved throughput fell below %.0f%% of offered load;\n",
			100*measure.SatAchievedFraction)
		fmt.Println("  past it the arrival queue outgrows service capacity and tail latency diverges.")
		fmt.Printf("\nlatency distribution at the knee (%.0f calls/sec offered):\n%s",
			points[k].OfferedPerSec, measure.HistogramString(points[k].Hist))
	} else {
		fmt.Println("\nno saturation knee within the sweep: every offered rate was served at speed.")
	}
}

// runCurves measures each document's curve in turn and prints it,
// then the suite's pair lines. With jsonPath set it writes every curve,
// named after its document, into one BENCH document.
func runCurves(docs []curveDoc, obs *observability, jsonPath string) error {
	fmt.Println(clock.MachineInfo())
	curves := make([]measure.NamedCurve, len(docs))
	for i, d := range docs {
		cfg := d.LoadCurveConfig
		cfg.Trace, cfg.Metrics = obs.rec, obs.reg
		fmt.Printf("\n--- curve %q ---\n", d.Name)
		rates, err := autoRates(cfg, d.Util)
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		cfg.Rates = rates
		describeCurve(cfg)
		points, err := measure.RunFleetLoadCurve(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", d.Name, err)
		}
		reportCurve(cfg, points)
		curves[i] = measure.NamedCurve{Name: d.Name, Config: cfg, Points: points}
	}
	summarizePairs(curves)
	if jsonPath == "" {
		return nil
	}
	return writeJSON(jsonPath, measure.NewBenchFleetCurves(curves, nil))
}

// summarizePairs prints the suite's pairs side by side: the knees of
// the mixed-fleet, dominant-key and kill-drill pairs, the points at
// which each elastic curve holds its SLO, and the QoS victim's p99
// ratio per rate. A line is printed only when both of its curves ran,
// and it reads its parameters from their configs.
func summarizePairs(curves []measure.NamedCurve) {
	named := map[string]*measure.NamedCurve{}
	for i := range curves {
		named[curves[i].Name] = &curves[i]
	}
	knee := func(c *measure.NamedCurve) int { return measure.KneeIndex(c.Points) }
	if cost, heat := named["mix-costaware"], named["mix-heatonly"]; cost != nil && heat != nil {
		fmt.Printf("\nmixed-fleet knees (%s, identical rate sweeps): cost-aware index %d, heat-only index %d\n",
			cost.Config.Fleet.Mix, knee(cost), knee(heat))
	}
	dom, rep := named["skew-dominant"], named["skew-replicated"]
	if dom != nil && rep != nil {
		fmt.Printf("dominant-key knees (Zipf %.1f, identical rate sweeps): replicated index %d, migration-only index %d\n",
			dom.Config.ZipfS, knee(rep), knee(dom))
	}
	if kill := named["chaos-kill"]; kill != nil && rep != nil {
		fmt.Printf("availability knees (%s drill, identical rate sweeps): chaos-kill index %d vs healthy replicated index %d\n",
			kill.Config.Chaos, knee(kill), knee(rep))
	}
	if auto, fixed := named["elastic-slo"], named["elastic-fixed"]; auto != nil && fixed != nil && auto.Config.Fleet.Autoscale != nil {
		slo := auto.Config.Fleet.Autoscale.SLOMicros
		held := func(c *measure.NamedCurve) (n int) {
			for _, p := range c.Points {
				if p.P99Micros <= slo {
					n++
				}
			}
			return n
		}
		fmt.Printf("elastic pair (p99 SLO %.0f us, identical rate sweeps): autoscaled holds %d/%d points, fixed %d-shard holds %d/%d\n",
			slo, held(auto), len(auto.Points), fixed.Config.Shards(), held(fixed), len(fixed.Points))
	}
	if solo, iso := named["qos-solo"], named["qos-isolation"]; solo != nil && iso != nil && len(solo.Points) == len(iso.Points) {
		fmt.Printf("qos pair (aggressor boost %.0fx, identical victim streams): victim p99 iso/solo per rate:",
			iso.Points[0].Tenants["aggressor"].Boost)
		sheds := 0
		for i := range solo.Points {
			sp := solo.Points[i].Tenants["victim"]
			ip := iso.Points[i].Tenants["victim"]
			ratio := 0.0
			if sp.P99Micros > 0 {
				ratio = ip.P99Micros / sp.P99Micros
			}
			fmt.Printf(" %.2f", ratio)
			sheds += iso.Points[i].Tenants["aggressor"].Shed
		}
		fmt.Printf("  (%d aggressor calls shed)\n", sheds)
	}
}

// writeJSON writes the BENCH document and reports where.
func writeJSON(path string, doc *measure.BenchFleet) error {
	raw, err := doc.MarshalIndent()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}

func parseList(s string, min int) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < min {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smodfleet:", err)
	os.Exit(1)
}
