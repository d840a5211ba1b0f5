// Command smodfleet measures aggregate smod_call throughput across a
// fleet of independent simulated kernels, extending the paper's
// single-kernel Figure 8 latencies with a scaling curve: the same
// SecModule libc traffic, sharded by client key over 1..N shards.
//
// Three modes exist:
//
// The default scaling sweep runs two workloads per shard count:
//
//   - closed-loop: a fixed set of warm sticky clients, each issuing its
//     next call only after the previous returned (steady state);
//   - open-loop: every call arrives under a fresh client key and pays
//     full session setup, with warm-session capacity bounded per shard
//     and reclaimed LRU (session churn).
//
// -loadcurve switches to the open-loop latency-vs-offered-load curve:
// arrivals follow a Poisson (or fixed-interval) schedule in simulated
// clock time, each call's latency is recorded on its shard's clock,
// and the table reports p50/p95/p99 per offered rate with the
// saturation knee marked. -json writes the machine-readable
// BENCH_fleet.json the CI bench job archives per commit.
//
// The load curve also hosts the load-management story: -skew draws
// arrival keys from a Zipf popularity distribution (hot clients pin to
// one shard), -rebalance lets the migrator move hot keys between
// the -epochs barriers of each point, and -cache N memoizes the
// module's idempotent functions per shard (pair with -argscard to give
// the memo table repeats to hit).
//
// -mix makes the measured fleet heterogeneous: a mix string like
// "fast=2,slow=2,crypto=1" assigns a backend machine-class profile to
// every shard (scaled cost model, optional per-call overhead, and for
// "crypto" a modcrypt-encrypted module archive). Placement and
// migration then weigh shard speed — hot keys land on fast shards —
// unless -heatonly forces the raw-heat balancer, the A/B baseline.
// The auto rate sweep derives mixed-fleet capacity from per-profile
// calibration stretches, and each point records per-profile
// utilization.
//
// -chaos turns a load curve into a deterministic fault drill: the
// schedule ("kill:0@5", "stall:1@6+50000", ...; see internal/chaos) is
// replayed identically at every point's rebalance barriers — warm-up is
// barrier 1, each -epochs sub-schedule adds one — so the curve shows
// what offered load the fleet still serves while shards die, stall, or
// lose sessions mid-point. -rewarmbudget records the declared per-
// re-warm cycle budget next to the curve for cmd/benchdiff to gate.
//
// -autoscale runs every load-curve point on an elastic fleet: the
// fleet opens at -asmin shards and the SLO autoscaler
// (internal/autoscale) resizes it between -asmin and -asmax at the
// epoch barriers to hold the -slo p99 target at minimum backend cost —
// growing one shard on a breach, draining the priciest shard after
// sustained comfort. -warmup excludes each point's leading adaptation
// epochs from the latency quantiles (the calls still run). Each point
// records the mean live shard count, mean fleet cost, and the slowest
// resize warm-in for cmd/benchdiff's warm-budget gate.
//
// -suite runs the CI gate suite — uniform, skewed+rebalancing, the
// mixed-fleet cost-aware/heat-only pair, the dominant-key replication
// pair, the kill-drill availability curve, and the elastic
// fixed-vs-autoscaled pair — and writes them as named curves into one
// BENCH_fleet.json for cmd/benchdiff to gate.
//
// Usage:
//
//	smodfleet                              # default scaling sweep
//	smodfleet -shards 1,2,4,8 -clients 16 -calls 100
//	smodfleet -loadcurve                   # load curve + BENCH_fleet.json
//	smodfleet -loadcurve -lcshards 4 -skew 1.2 -epochs 8 -rebalance  # skewed, migrating
//	smodfleet -loadcurve -mix fast=2,slow=2 -skew 1.2 -epochs 8 -rebalance
//	smodfleet -loadcurve -mix fast=2,slow=2 -skew 1.2 -epochs 8 -rebalance -heatonly
//	smodfleet -loadcurve -lcshards 4 -skew 1.5 -epochs 8 -replicas 4 -chaos kill:0@5
//	smodfleet -loadcurve -lcshards 4 -epochs 10 -warmup 5 -rebalance -autoscale -slo 60 -asmin 2 -asmax 6
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

// defaultUtil is the -util default: the utilization fractions of
// measured capacity the auto rate sweep offers.
const defaultUtil = "0.2,0.5,0.8,0.95,1.1,1.4"

func main() {
	var (
		shardList   = flag.String("shards", "1,2,4,8", "comma-separated shard counts to sweep")
		clients     = flag.Int("clients", 16, "closed-loop sticky clients (and load-curve warm keys)")
		calls       = flag.Int("calls", 50, "closed-loop calls per client")
		openCalls   = flag.Int("opencalls", 64, "open-loop total calls (fresh key each)")
		maxSessions = flag.Int("maxsessions", 8, "open-loop warm-session cap per shard (LRU reclaim)")
		openLoop    = flag.Bool("open", true, "also run the open-loop (session churn) sweep")

		loadCurve = flag.Bool("loadcurve", false, "run the latency-vs-offered-load curve instead of the scaling sweep")
		lcShards  = flag.Int("lcshards", 2, "load curve: fleet size")
		lcCalls   = flag.Int("lccalls", 300, "load curve: arrivals measured per offered-load point")
		process   = flag.String("process", "poisson", "load curve: arrival process (poisson|uniform)")
		seed      = flag.Int64("seed", 1, "load curve: arrival schedule seed")
		rateList  = flag.String("rates", "", "load curve: comma-separated offered calls/sec (default: -util fractions of measured capacity)")
		utilList  = flag.String("util", defaultUtil, "load curve: utilization fractions for the auto rate sweep")
		jsonPath  = flag.String("json", "", "write BENCH_fleet.json to this path (default BENCH_fleet.json in -loadcurve/-suite modes, off otherwise)")

		skew      = flag.Float64("skew", 0, "load curve: Zipf exponent for key popularity (0 = uniform; try 1.2)")
		epochs    = flag.Int("epochs", 1, "load curve: barrier-separated sub-schedules per point (rebalance acts between them)")
		rebalance = flag.Bool("rebalance", false, "load curve: migrate hot keys across shards at epoch barriers")
		cacheSize = flag.Int("cache", 0, "load curve: per-shard idempotent result-cache entries (0 = off)")
		argsCard  = flag.Int("argscard", 0, "load curve: distinct argument values (0 = all unique; small values feed the result cache)")

		mix          = flag.String("mix", "", "load curve: heterogeneous backend mix, e.g. fast=2,slow=2,crypto=1 (overrides -lcshards)")
		heatOnly     = flag.Bool("heatonly", false, "load curve: with -rebalance, migration balances raw heat, ignoring backend cost weights (A/B baseline for -mix)")
		replicas     = flag.Int("replicas", 0, "load curve: serve idempotent hot keys from up to N shards at once, resized at epoch barriers (with -rebalance, the rest keep migrating)")
		chaosSpec    = flag.String("chaos", "", "load curve: deterministic fault drill replayed at every point, e.g. kill:0@5 or kill:0@4;stall:1@6+50000 (chaos.Parse syntax; barriers count warm-up as 1)")
		rewarmBudget = flag.Uint64("rewarmbudget", chaos.DefaultRewarmBudgetCycles, "load curve: declared per-re-warm cycle budget recorded with -chaos curves (benchdiff gates on it)")
		suite        = flag.Bool("suite", false, "run the CI gate suite (uniform + skewed + mixed cost-aware/heat-only + dominant-key replicated pair + kill-drill + elastic fixed/autoscaled pair + qos isolation pair) into one BENCH document")

		tracePath   = flag.String("trace", "", "write the run's flight recorder as Chrome trace-event JSON (Perfetto-loadable) to this path (-loadcurve/-suite modes)")
		eventsPath  = flag.String("events", "", "write the run's flight recorder as a JSONL event log to this path (-loadcurve/-suite modes)")
		metricsAddr = flag.String("metrics", "", "serve /metrics (Prometheus text), /debug/vars and /debug/pprof on this address for the duration of the run")

		tenants      = flag.String("tenants", "", "load curve: run every point multi-tenant; QoS classes name:weight:clients[:boost[:rate[:burst]]], comma-separated (e.g. gold:4:4,free:1:4:6)")
		tenantKnee   = flag.Int("tenantknee", 0, "load curve: per-shard queue-depth shed knee for -tenants (0 = tenant package default)")
		tenantWindow = flag.Int("tenantwindow", 0, "load curve: per-shard inflight window for -tenants; small values keep WFQ in charge of ordering (0 = tenant package default)")

		autoscale = flag.Bool("autoscale", false, "load curve: run every point on an SLO-autoscaled elastic fleet (see -slo/-asmin/-asmax)")
		slo       = flag.Float64("slo", 60, "load curve: autoscaler p99 target in simulated microseconds (-autoscale)")
		asMin     = flag.Int("asmin", 2, "load curve: elastic fleet floor (-autoscale)")
		asMax     = flag.Int("asmax", 6, "load curve: elastic fleet ceiling (-autoscale)")
		warmup    = flag.Int("warmup", 0, "load curve: leading epochs per point excluded from the latency quantiles (adaptation window)")
	)
	flag.Parse()

	kind, err := parseProcess(*process)
	if err != nil {
		fatal(err)
	}

	obs, err := openObservability(*tracePath, *eventsPath, *metricsAddr, *loadCurve || *suite)
	if err != nil {
		fatal(err)
	}
	defer obs.export()

	if *suite {
		err := runSuite(suiteParams{
			uniformShards: *lcShards,
			clients:       *clients,
			calls:         *lcCalls,
			seed:          *seed,
			kind:          kind,
			utilList:      *utilList,
			jsonPath:      *jsonPath,
			obs:           obs,
		})
		if err != nil {
			fatal(err)
		}
		return
	}

	if *loadCurve {
		// The flags fill the fleet spec. -mix or -autoscale replace the
		// fixed -lcshards size, which an autoscaled curve keeps as its
		// reference size.
		place, err := placementOf(*rebalance, *heatOnly, *replicas)
		if err != nil {
			fatal(err)
		}
		fs := spec.FleetSpec{
			Schema:      spec.SchemaV1,
			Mix:         *mix,
			Placement:   place,
			Replicas:    *replicas,
			Seed:        *seed,
			ResultCache: *cacheSize,
		}
		refShards := 0
		switch {
		case *autoscale:
			fs.Autoscale = &spec.AutoscaleSpec{Min: *asMin, Max: *asMax, SLOMicros: *slo}
			refShards = *lcShards
		case *mix == "":
			fs.Shards = *lcShards
		}
		if *chaosSpec != "" {
			fs.RewarmBudgetCycles = *rewarmBudget
		}
		if err := fs.Validate(); err != nil {
			fatal(err)
		}
		lcCfg := measure.LoadCurveConfig{
			Fleet:           fs,
			RefShards:       refShards,
			Clients:         *clients,
			Calls:           *lcCalls,
			Kind:            kind,
			ZipfS:           *skew,
			ArgsCardinality: *argsCard,
			Epochs:          *epochs,
			Chaos:           *chaosSpec,
			WarmupEpochs:    *warmup,
		}
		if *tenants != "" {
			tls, err := parseTenants(*tenants)
			if err != nil {
				fatal(err)
			}
			lcCfg.Tenants = tls
			lcCfg.TenantKnee = *tenantKnee
			lcCfg.TenantWindow = *tenantWindow
			// The classes own the key space; keep the capacity probe's
			// warm-key count in step with it.
			lcCfg.Clients = 0
			for _, tl := range tls {
				lcCfg.Clients += tl.Clients
			}
		}
		obs.apply(&lcCfg)
		if err := runLoadCurve(lcCfg, *rateList, *utilList, *jsonPath); err != nil {
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

// placementOf maps -rebalance, -heatonly and -replicas onto a spec
// placement: -rebalance migrates cost-aware, or heat-only under
// -heatonly, and -replicas alone replicates without migrating. A
// replica cap under a migrating placement replicates and migrates.
func placementOf(rebalance, heatOnly bool, replicas int) (string, error) {
	switch {
	case heatOnly && !rebalance:
		return "", fmt.Errorf("-heatonly selects how -rebalance migrates; it needs -rebalance")
	case heatOnly:
		return spec.PlacementHeat, nil
	case rebalance:
		return spec.PlacementCostAware, nil
	case replicas > 0:
		return spec.PlacementReplicated, nil
	}
	return spec.PlacementSticky, nil
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
			return nil, fmt.Errorf("-trace/-events need -loadcurve or -suite")
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

// apply threads the recorder and registry into one curve config.
func (o *observability) apply(cfg *measure.LoadCurveConfig) {
	cfg.Trace = o.rec
	cfg.Metrics = o.reg
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

func parseProcess(process string) (measure.ArrivalKind, error) {
	switch process {
	case "poisson":
		return measure.Poisson, nil
	case "uniform":
		return measure.Uniform, nil
	}
	return 0, fmt.Errorf("unknown arrival process %q (want poisson or uniform)", process)
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

// autoRates estimates the fleet's capacity and returns the -util
// fractions of it as the offered-rate sweep. Homogeneous fleets probe
// with a short closed-loop run (without skew, migration or caching, so
// skewed/rebalanced curves sweep the same rates and their knees are
// comparable); heterogeneous fleets sum per-profile capacities from
// backend calibration stretches.
func autoRates(cfg measure.LoadCurveConfig, utilList string) ([]float64, error) {
	utils, err := parseFloats(utilList)
	if err != nil {
		return nil, err
	}
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

// runLoadCurve drives the single latency-vs-offered-load mode and
// writes its BENCH document: one curve, named "uniform".
func runLoadCurve(cfg measure.LoadCurveConfig, rateList, utilList, jsonPath string) error {
	fmt.Println(clock.MachineInfo())

	var err error
	if rateList != "" {
		cfg.Rates, err = parseFloats(rateList)
	} else {
		cfg.Rates, err = autoRates(cfg, utilList)
	}
	if err != nil {
		return err
	}

	describeCurve(cfg)
	points, err := measure.RunFleetLoadCurve(cfg)
	if err != nil {
		return err
	}
	reportCurve(cfg, points)

	if jsonPath == "" {
		jsonPath = "BENCH_fleet.json"
	}
	curves := []measure.NamedCurve{{Name: "uniform", Config: cfg, Points: points}}
	return writeJSON(jsonPath, measure.NewBenchFleetCurves(curves, nil))
}

// suiteParams parameterize the CI gate suite.
type suiteParams struct {
	uniformShards int
	clients       int
	calls         int
	seed          int64
	kind          measure.ArrivalKind
	utilList      string
	jsonPath      string
	obs           *observability
}

// suiteMix is the heterogeneous composition the gate suite sweeps: the
// 4-shard fast/slow split whose cost-aware-vs-heat-only knee gap is
// the acceptance signal of the backend layer.
const suiteMix = "fast=2,slow=2"

// suiteDominantZipf is the single-dominant-key skew of the replication
// pair: at Zipf(1.5) the rank-0 key draws about half of all arrivals,
// the regime where one shard caps the whole fleet unless the key is
// served from several shards at once.
const suiteDominantZipf = 1.5

// suiteChaosDrill is the gate suite's kill drill: shard 0 dies at
// barrier 5 of every measured point (warm-up is barrier 1, epochs 2-9),
// so each point spends roughly half its schedule on 3 of 4 shards.
const suiteChaosDrill = "kill:0@5"

// Elastic-pair parameters: both curves sweep the same rate grid
// (fractions of the fixed 4-shard fleet's capacity, topping out past
// its knee), with enough warm keys that migration can spread load over
// a grown fleet, and the first half of each point's epochs excluded
// from the quantiles as the autoscaler's adaptation window. The SLO is
// the p99 target the autoscaled 2..6-shard fleet must hold at every
// swept rate — including the top rate the fixed fleet saturates at.
const (
	suiteElasticSLO     = 60.0 // p99 target, simulated microseconds
	suiteElasticMin     = 2
	suiteElasticMax     = 6
	suiteElasticFixed   = 4 // the fixed-fleet baseline size
	suiteElasticClients = 24
	suiteElasticUtils   = "0.3,0.6,0.9,1.2"
	suiteElasticEpochs  = 10
	suiteElasticWarmup  = 5
)

// QoS-pair parameters: a 2-shard fleet with two tenant classes sweeping
// the same nominal rate grid twice. In qos-solo the aggressor class is
// declared but silent (boost 0), so the victim's arrival stream is the
// whole load; in qos-isolation the aggressor offers suiteQoSBoost times
// its fair share — far past the shed knee at the upper rates — while
// the victim's stream is bit-identical to solo (per-class streams are
// independent). The 64:1 weight ratio approximates strict priority (a
// DRR round serves up to 64 victim calls per aggressor call), and the
// inflight window of 1 keeps WFQ in charge of every dispatch — both are
// what the isolation invariant in cmd/benchdiff needs to hold the
// victim's p99 within 10% of solo at the overloaded upper rates.
const (
	suiteQoSKnee   = 64  // per-shard queue-depth shed knee
	suiteQoSWindow = 1   // per-shard inflight window
	suiteQoSBoost  = 6.0 // aggressor's multiple of its proportional share
)

// suiteQoSTenants builds the pair's class declarations; aggBoost is 0
// (solo) or suiteQoSBoost (isolation).
func suiteQoSTenants(aggBoost float64) []measure.TenantLoad {
	return []measure.TenantLoad{
		{Name: "victim", Weight: 64, Clients: 4, Boost: 1},
		{Name: "aggressor", Weight: 1, Clients: 4, Boost: aggBoost},
	}
}

// runSuite measures the gate suite — eleven named curves in one BENCH
// document:
//
//	uniform:         homogeneous fleet, uniform keys (the historical gate);
//	skew-rebalance:  homogeneous fleet, Zipf(1.2) keys, migration on;
//	mix-costaware:   fast=2,slow=2, Zipf keys, cost-aware migration;
//	mix-heatonly:    same fleet and rates, migration ignoring shard speed;
//	skew-dominant:   homogeneous 4-shard fleet, Zipf(1.5) single-dominant
//	                 key, cost-aware migration only;
//	skew-replicated: same fleet and rates, hot-key replication on;
//	chaos-kill:      the skew-replicated fleet and rates, with shard 0
//	                 killed mid-point at barrier 5 of every point — the
//	                 availability curve under the kill-one-shard drill;
//	elastic-fixed:   a fixed 4-shard migrating fleet swept past its knee
//	                 (uniform keys, warm-up epochs excluded);
//	elastic-slo:     same workload and rates on the SLO-autoscaled
//	                 2..6-shard fleet — the elasticity curve: it must
//	                 hold the p99 SLO at rates the fixed fleet cannot,
//	                 while averaging no more shards than the fixed fleet;
//	qos-solo:        a 2-shard tenanted fleet where the weight-4 victim
//	                 class runs alone (the weight-1 aggressor is declared
//	                 but silent) — the victim's baseline quantiles;
//	qos-isolation:   the identical fleet and victim stream with the
//	                 aggressor flooding at several times its fair share —
//	                 WFQ and the shed knee must hold the victim's p99
//	                 within 10% of solo (the isolation invariant).
//
// Each paired set sweeps identical offered rates, so knee indices are
// directly comparable: cost-aware above heat-only is the capacity the
// cost-aware migrator recovers from a mixed fleet, replicated above
// dominant is the single-shard ceiling hot-key replication lifts —
// migration alone cannot help once one key IS the load — and the gap
// between chaos-kill and skew-replicated is the capacity one dead
// shard costs a replicated fleet that fails over and re-warms at the
// barrier.
func runSuite(p suiteParams) error {
	fmt.Println(clock.MachineInfo())
	fmt.Printf("\n=== bench suite: uniform + skew-rebalance + %s cost-aware/heat-only + dominant-key replication pair + kill drill + elastic pair + qos pair ===\n", suiteMix)

	base := measure.LoadCurveConfig{
		Fleet:   spec.FleetSpec{Schema: spec.SchemaV1, Seed: p.seed},
		Clients: p.clients,
		Calls:   p.calls,
		Kind:    p.kind,
	}
	uniform := base
	uniform.Fleet.Shards = p.uniformShards

	skewed := base
	skewed.Fleet.Shards = 4
	skewed.Fleet.Placement = spec.PlacementCostAware
	skewed.ZipfS = 1.2
	skewed.Epochs = 8

	mixCost := base
	mixCost.Fleet.Mix = suiteMix
	mixCost.Fleet.Placement = spec.PlacementCostAware
	mixCost.ZipfS = 1.2
	mixCost.Epochs = 8

	mixHeat := mixCost
	mixHeat.Fleet.Placement = spec.PlacementHeat

	// The dominant-key pair: one key draws ~half the arrivals, so the
	// sticky+migrating fleet saturates at its primary shard's capacity;
	// the replicated variant serves that key from up to 4 shards.
	dominant := base
	dominant.Fleet.Shards = 4
	dominant.Fleet.Placement = spec.PlacementCostAware
	dominant.ZipfS = suiteDominantZipf
	dominant.Epochs = 8

	replicated := dominant
	replicated.Fleet.Replicas = 4

	// The kill drill: the replicated fleet loses shard 0 at barrier 5
	// of every point (warm-up is barrier 1, so mid-schedule). Survivors
	// fail hot replicated keys over and re-warm the orphans.
	chaosKill := replicated
	chaosKill.Chaos = suiteChaosDrill
	chaosKill.Fleet.RewarmBudgetCycles = chaos.DefaultRewarmBudgetCycles

	// The elastic pair: a fixed 4-shard fleet swept past its knee vs the
	// SLO-autoscaled 2..6-shard fleet on the identical rate grid. Uniform
	// keys over more clients than the ceiling's shard count, so the
	// migrating balancer can spread load over every shard the autoscaler
	// adds; half of each point's epochs are the adaptation window.
	elasticFixed := base
	elasticFixed.Fleet.Shards = suiteElasticFixed
	elasticFixed.Fleet.Placement = spec.PlacementCostAware
	elasticFixed.Clients = suiteElasticClients
	elasticFixed.Epochs = suiteElasticEpochs
	elasticFixed.WarmupEpochs = suiteElasticWarmup

	elasticSLO := elasticFixed
	elasticSLO.Fleet.Shards = 0
	elasticSLO.RefShards = suiteElasticFixed
	elasticSLO.Fleet.Autoscale = &spec.AutoscaleSpec{
		Min: suiteElasticMin, Max: suiteElasticMax, SLOMicros: suiteElasticSLO}

	// The QoS pair: same 2-shard fleet and nominal rate grid, the victim
	// class's arrival stream bit-identical across both curves, and only
	// the aggressor's boost differing (0 = silent baseline). WFQ weights
	// 4:1 plus the shed knee are what must keep the victim's quantiles
	// in place when the aggressor floods.
	qosSolo := base
	qosSolo.Fleet.Shards = 2
	qosSolo.Clients = 8 // the classes own the key space: 4 + 4
	qosSolo.TenantKnee = suiteQoSKnee
	qosSolo.TenantWindow = suiteQoSWindow
	qosSolo.Tenants = suiteQoSTenants(0)

	qosIso := qosSolo
	qosIso.Tenants = suiteQoSTenants(suiteQoSBoost)

	curves := []measure.NamedCurve{
		{Name: "uniform", Config: uniform},
		{Name: "skew-rebalance", Config: skewed},
		{Name: "mix-costaware", Config: mixCost},
		{Name: "mix-heatonly", Config: mixHeat},
		{Name: "skew-dominant", Config: dominant},
		{Name: "skew-replicated", Config: replicated},
		{Name: "chaos-kill", Config: chaosKill},
		{Name: "elastic-fixed", Config: elasticFixed},
		{Name: "elastic-slo", Config: elasticSLO},
		{Name: "qos-solo", Config: qosSolo},
		{Name: "qos-isolation", Config: qosIso},
	}
	// Each A/B pair shares one rate sweep (computed for its first
	// curve) so the knees are comparable; the others get their own.
	shared := map[string]string{
		"mix-heatonly":    "mix-costaware",
		"skew-replicated": "skew-dominant",
		"chaos-kill":      "skew-dominant",
		"elastic-slo":     "elastic-fixed",
		"qos-isolation":   "qos-solo",
	}
	// Per-curve utilization grids: the elastic pair sweeps deeper past
	// the fixed fleet's knee so the autoscaled headroom is visible.
	utilOf := map[string]string{"elastic-fixed": suiteElasticUtils}
	rates := map[string][]float64{}
	for i := range curves {
		cfg := &curves[i].Config
		if err := cfg.Fleet.Validate(); err != nil {
			return fmt.Errorf("%s: %w", curves[i].Name, err)
		}
		if p.obs != nil {
			p.obs.apply(cfg)
		}
		if src, ok := shared[curves[i].Name]; ok && rates[src] != nil {
			cfg.Rates = rates[src]
		} else {
			utils := p.utilList
			if u, ok := utilOf[curves[i].Name]; ok {
				utils = u
			}
			rs, err := autoRates(*cfg, utils)
			if err != nil {
				return fmt.Errorf("%s: %w", curves[i].Name, err)
			}
			cfg.Rates = rs
			rates[curves[i].Name] = rs
		}
		fmt.Printf("\n--- curve %q ---\n", curves[i].Name)
		describeCurve(*cfg)
		points, err := measure.RunFleetLoadCurve(*cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", curves[i].Name, err)
		}
		curves[i].Points = points
		reportCurve(*cfg, points)
	}

	kneeOf := func(name string) int {
		for _, c := range curves {
			if c.Name == name {
				return measure.KneeIndex(c.Points)
			}
		}
		return -1
	}
	fmt.Printf("\nmixed-fleet knees (%s, identical rate sweeps): cost-aware index %d, heat-only index %d\n",
		suiteMix, kneeOf("mix-costaware"), kneeOf("mix-heatonly"))
	fmt.Printf("dominant-key knees (Zipf %.1f, identical rate sweeps): replicated index %d, migration-only index %d\n",
		suiteDominantZipf, kneeOf("skew-replicated"), kneeOf("skew-dominant"))
	fmt.Printf("availability knees (%s drill, identical rate sweeps): chaos-kill index %d vs healthy replicated index %d\n",
		suiteChaosDrill, kneeOf("chaos-kill"), kneeOf("skew-replicated"))
	sloHolds := func(name string) (held, total int) {
		for _, c := range curves {
			if c.Name != name {
				continue
			}
			total = len(c.Points)
			for _, pt := range c.Points {
				if pt.P99Micros <= suiteElasticSLO {
					held++
				}
			}
		}
		return held, total
	}
	sloHeld, sloTotal := sloHolds("elastic-slo")
	fixHeld, fixTotal := sloHolds("elastic-fixed")
	fmt.Printf("elastic pair (p99 SLO %.0f us, identical rate sweeps): autoscaled holds %d/%d points, fixed %d-shard holds %d/%d\n",
		suiteElasticSLO, sloHeld, sloTotal, suiteElasticFixed, fixHeld, fixTotal)
	curveOf := func(name string) *measure.NamedCurve {
		for i := range curves {
			if curves[i].Name == name {
				return &curves[i]
			}
		}
		return nil
	}
	if solo, iso := curveOf("qos-solo"), curveOf("qos-isolation"); solo != nil && iso != nil {
		fmt.Printf("qos pair (aggressor boost %.0fx, identical victim streams): victim p99 iso/solo per rate:", suiteQoSBoost)
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

	jsonPath := p.jsonPath
	if jsonPath == "" {
		jsonPath = "BENCH_fleet.json"
	}
	return writeJSON(jsonPath, measure.NewBenchFleetCurves(curves, nil))
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

// parseTenants parses the -tenants flag: one QoS class per comma-
// separated entry, name:weight:clients[:boost[:rate[:burst]]]. Boost
// defaults to 1 (the class offers exactly its proportional share);
// rate/burst default to 0 (no admission bucket).
func parseTenants(s string) ([]measure.TenantLoad, error) {
	var out []measure.TenantLoad
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 3 || len(parts) > 6 || parts[0] == "" {
			return nil, fmt.Errorf("bad tenant %q (want name:weight:clients[:boost[:rate[:burst]]])", entry)
		}
		tl := measure.TenantLoad{Name: parts[0], Boost: 1}
		ints := []*int{&tl.Weight, &tl.Clients, nil, &tl.Rate, &tl.Burst}
		for i, p := range parts[1:] {
			if i == 2 { // boost is the one float field
				b, err := strconv.ParseFloat(p, 64)
				if err != nil || b < 0 {
					return nil, fmt.Errorf("bad tenant boost %q in %q", p, entry)
				}
				tl.Boost = b
				continue
			}
			n, err := strconv.Atoi(p)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad tenant field %q in %q", p, entry)
			}
			*ints[i] = n
		}
		out = append(out, tl)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad rate %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smodfleet:", err)
	os.Exit(1)
}
