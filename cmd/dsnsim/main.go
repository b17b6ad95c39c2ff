// Command dsnsim runs the cycle-accurate network simulator on one
// topology, either open-loop (one traffic pattern across a range of
// offered loads, printing a latency-vs-accepted-traffic series — one
// Figure 10 curve) or closed-loop (-collective: replay a collective
// workload's message DAG and print its makespan per repetition).
//
// Usage:
//
//	dsnsim -topo dsn -pattern uniform
//	dsnsim -topo torus -pattern transpose -rates 0.02,0.05,0.1
//	dsnsim -topo dsn -pattern stencil-2d -switching wormhole
//	dsnsim -topo dsn-v -routing custom -rates 0.01,0.02
//	dsnsim -topo torus -n 16 -routing dor
//	dsnsim -topo dsn -routing mp-adaptive-k4
//	dsnsim -topo dsn -faults 0.05
//	dsnsim -topo dsn -collective allreduce -collalgo ring
//	dsnsim -topo torus -collective broadcast -faults 0.05
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dsnet"
	"dsnet/internal/catalog"
	"dsnet/internal/harness"
)

// opts carries the command-line configuration of one dsnsim invocation.
type opts struct {
	topo      string
	pattern   string
	routing   string
	n         int
	seed      uint64
	rates     string
	warmup    int64
	measure   int64
	drain     int64
	switching string
	buf       int
	trace     int64

	// Live fault injection: faults is the fraction of links to kill
	// during the run (0 disables). faultCycle / faultSpread place the
	// failures in time; negative values mean "at warmup end" and "across
	// half the measurement window" (in collective mode: "at cycle 0" and
	// "across the first 5000 cycles", so failures land mid-collective).
	faults      float64
	faultCycle  int64
	faultSpread int64

	// Runtime deadlock recovery: recover arms the per-packet stall
	// detector and Disha-style abort path, stall overrides the suspicion
	// threshold, drainFaults additionally drains in-flight traffic
	// before each fault-epoch routing-table swap. (-drain is already the
	// post-measurement drain window, hence -drainfaults.)
	recover     bool
	stall       int64
	drainFaults bool

	// Closed-loop collective replay: collective selects the workload
	// (empty keeps the open-loop pattern mode), collalgo the algorithm
	// (empty picks the collective's default), chunk the per-host chunk
	// size in flits, reps the number of seeded rank placements.
	collective string
	collalgo   string
	chunk      int
	reps       int
}

// runner executes the per-rate / per-rep cells on a bounded worker pool
// with an optional content-addressed cache; assembly is deterministic,
// so the printed series is bit-identical at any -j.
var runner *harness.Runner

func main() {
	var o opts
	flag.StringVar(&o.topo, "topo", "dsn", "topology: "+strings.Join(catalog.FabricNames, ", "))
	flag.StringVar(&o.pattern, "pattern", "uniform",
		"traffic: "+strings.Join(dsnet.PatternNames, ", "))
	flag.StringVar(&o.routing, "routing", "adaptive",
		"routing: "+strings.Join(catalog.RouterNames, ", ")+" or "+catalog.MultipathPattern+" (adaptive: Duato + up*/down* escape; custom needs -topo dsn-e or dsn-v, unsafe -topo dsn, dor a torus)")
	flag.IntVar(&o.n, "n", 64, "number of switches")
	flag.Uint64Var(&o.seed, "seed", 1, "simulation seed")
	flag.StringVar(&o.rates, "rates", "0.02,0.04,0.06,0.08,0.10,0.12", "offered loads in flits/cycle/host")
	flag.Int64Var(&o.warmup, "warmup", 20000, "warmup cycles")
	flag.Int64Var(&o.measure, "measure", 40000, "measurement cycles")
	flag.Int64Var(&o.drain, "drain", 40000, "drain cycles")
	flag.StringVar(&o.switching, "switching", "vct", "switching mode: vct (virtual cut-through) or wormhole")
	flag.IntVar(&o.buf, "buf", 0, "buffer flits per VC (default: packet size for vct, 20 for wormhole)")
	flag.Int64Var(&o.trace, "trace", 0, "print lifecycle events for the first N packets (wormhole: generation, delivery and recovery aborts only)")
	flag.Float64Var(&o.faults, "faults", 0, "fraction of links to fail during the run (live fault injection)")
	flag.Int64Var(&o.faultCycle, "faultcycle", -1, "cycle of the first link failure (default: end of warmup)")
	flag.Int64Var(&o.faultSpread, "faultspread", -1, "cycles over which failures are staggered (default: half the measurement window)")
	flag.BoolVar(&o.recover, "recover", false, "arm runtime deadlock detection and recovery")
	flag.Int64Var(&o.stall, "stallthreshold", 0, "stall cycles before a packet is suspected deadlocked (0: recovery default)")
	flag.BoolVar(&o.drainFaults, "drainfaults", false, "with -recover: drain in-flight traffic before swapping routing tables at each fault epoch")
	flag.StringVar(&o.collective, "collective", "",
		"closed-loop collective workload: "+strings.Join(dsnet.CollectiveNames, ", ")+" (empty: open-loop -pattern mode)")
	flag.StringVar(&o.collalgo, "collalgo", "", "collective algorithm: ring, halving-doubling, binomial, pairwise (default: the collective's default)")
	flag.IntVar(&o.chunk, "chunk", 0, "collective chunk size in flits per host (default: one packet)")
	flag.IntVar(&o.reps, "reps", 3, "collective repetitions across seeded rank placements")
	jobs := flag.Int("j", 0, "parallel sweep workers (0: all CPUs)")
	cache := flag.String("cache", harness.DefaultCacheDir, "sweep result cache directory")
	nocache := flag.Bool("nocache", false, "bypass the sweep result cache")
	bench := flag.String("bench", "", "write machine-readable sweep benchmarks to this JSON file")
	flag.Parse()
	var err error
	runner, err = harness.NewRunner(*jobs, *cache, *nocache)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsnsim:", err)
		os.Exit(1)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "dsnsim:", err)
		os.Exit(1)
	}
	if *bench != "" {
		if err := harness.NewReport(runner.Bench, runner.JobCount()).WriteFile(*bench); err != nil {
			fmt.Fprintln(os.Stderr, "dsnsim:", err)
			os.Exit(1)
		}
	}
}

func run(o opts) error {
	cfg := dsnet.DefaultSimConfig()
	cfg.Seed = o.seed
	cfg.WarmupCycles = o.warmup
	cfg.MeasureCycles = o.measure
	cfg.DrainCycles = o.drain
	if o.trace > 0 {
		cfg.Trace = os.Stderr
		cfg.TracePackets = o.trace
		// Tracing wants readable, always-executed output: parallel cells
		// would interleave stderr and a cache hit would skip the traced
		// run entirely.
		runner = harness.Serial()
	}
	switch o.switching {
	case "vct":
		if o.buf > 0 {
			cfg.BufFlitsPerVC = o.buf
		}
	case "wormhole":
		cfg.BufFlitsPerVC = 20
		if o.buf > 0 {
			cfg.BufFlitsPerVC = o.buf
		}
	default:
		return fmt.Errorf("unknown switching mode %q", o.switching)
	}

	var rates []float64
	for _, s := range strings.Split(o.rates, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad rate %q: %w", s, err)
		}
		rates = append(rates, r)
	}

	fab, err := catalog.Build(catalog.Spec{Name: o.topo, N: o.n, Seed: o.seed})
	if err != nil {
		return err
	}
	g := fab.Graph

	// mkRouter builds a fresh router per cell: construction is
	// deterministic, and fault-aware routers mutate their tables as
	// faults land, so sharing one instance across offered loads would
	// leak degraded state between points. A router the fabric cannot
	// carry is refused here, before any cell runs.
	mkRouter, err := catalog.Router(o.routing, fab, cfg.VCs, o.seed)
	if err != nil {
		return err
	}

	if !o.recover && (o.drainFaults || o.stall > 0) {
		return fmt.Errorf("-drainfaults and -stallthreshold require -recover")
	}
	// The recovery tuning joins every cell key: a cached unarmed run
	// must never answer for an armed one (or vice versa), even though
	// idle recovery is bit-identical on the wire.
	recFP := "off"
	var rec dsnet.RecoveryConfig
	if o.recover {
		rec = dsnet.RecoveryDefault()
		if o.stall > 0 {
			rec.StallThresholdCycles = o.stall
		}
		rec.DrainOnFault = o.drainFaults
		recFP = harness.Fingerprint(fmt.Sprintf("%+v", rec))
	}

	var plan *dsnet.FaultPlan
	if o.faults > 0 {
		start, spread := o.faultCycle, o.faultSpread
		if start < 0 {
			start = cfg.WarmupCycles
			if o.collective != "" {
				start = 0 // a replay has no warmup: fail mid-collective
			}
		}
		if spread < 0 {
			spread = cfg.MeasureCycles / 2
			if o.collective != "" {
				spread = 5000
			}
		}
		plan, err = dsnet.RandomLinkFaults(g, o.faults, start, spread, o.seed)
		if err != nil {
			return err
		}
		if plan.FailureCount() == 0 {
			return fmt.Errorf("-faults %g fails no links on %d edges; raise the fraction", o.faults, g.M())
		}
	} else if o.faults < 0 {
		return fmt.Errorf("-faults %g is negative", o.faults)
	}

	if o.collective != "" {
		return runCollective(o, cfg, g, mkRouter, plan, rec, recFP)
	}

	fmt.Printf("# %s / %s / %s routing / %s switching, %d switches x %d hosts, seed %d\n",
		o.topo, o.pattern, o.routing, o.switching, g.N(), cfg.HostsPerSwitch, o.seed)
	recCols := ""
	if o.recover {
		fmt.Printf("# recovery armed: stall threshold %d, confirm %d, abort budget %d, drain-on-fault %v\n",
			rec.StallThresholdCycles, rec.ConfirmCycles, rec.AbortBudget, rec.DrainOnFault)
		recCols = fmt.Sprintf(" %7s %7s %7s %7s %8s", "dl_det", "dl_rec", "dl_rel", "dl_lost", "dl_flits")
	}
	if plan != nil {
		fmt.Printf("# live faults: %d links failing from cycle %d\n",
			plan.FailureCount(), plan.Events[0].Cycle)
		fmt.Printf("%12s %12s %12s %12s %10s %9s %8s %6s %8s %9s %12s%s\n",
			"offered_gbps", "accepted", "latency_ns", "p99_ns", "saturated",
			"del_rate", "dropped", "lost", "retried", "rerouted", "pf_p99_ns", recCols)
	} else {
		fmt.Printf("%12s %12s %12s %12s %10s%s\n", "offered_gbps", "accepted", "latency_ns", "p99_ns", "saturated", recCols)
	}
	// point memoizes one offered load: the run result plus whether the
	// progress watchdog aborted it (printed as saturated).
	type point struct {
		Res      dsnet.SimResult
		Watchdog bool
	}
	graphFP := harness.GraphFingerprint(g)
	cfgFP := harness.SimConfigFingerprint(cfg)
	planFP := harness.FaultPlanFingerprint(plan)
	cells := make([]harness.Cell[point], 0, len(rates))
	for _, rate := range rates {
		key := harness.NewKey("dsnsim")
		key.Topo, key.Routing, key.Switching, key.Pattern = o.topo, o.routing, o.switching, o.pattern
		key.N, key.Rate, key.Seed = g.N(), rate, o.seed
		key.Params = []harness.Param{
			harness.P("graph", graphFP), harness.P("cfg", cfgFP), harness.P("plan", planFP),
			harness.P("recover", recFP),
		}
		cells = append(cells, harness.Cell[point]{Key: key, Run: func() (point, error) {
			rt, err := mkRouter()
			if err != nil {
				return point{}, err
			}
			// Built per cell: some patterns (all-to-all) carry per-simulation
			// state that must not leak between offered loads.
			pat, err := dsnet.PatternFor(o.pattern, g.N(), cfg.HostsPerSwitch)
			if err != nil {
				return point{}, err
			}
			sim, err := buildSim(o, cfg, g, rt, pat, rate, plan, rec)
			if err != nil {
				return point{}, err
			}
			res, runErr := sim.Run()
			return point{Res: res, Watchdog: runErr != nil}, nil
		}})
	}
	points, err := harness.Run(runner, "dsnsim", cells)
	if err != nil {
		return err
	}
	for _, p := range points {
		res := p.Res
		sat := res.Saturated || p.Watchdog
		recVals := ""
		if o.recover {
			recVals = fmt.Sprintf(" %7d %7d %7d %7d %8d",
				res.DeadlocksDetected, res.DeadlocksRecovered, res.DeadlocksReleased,
				res.DeadlocksLost, res.AbortedFlits)
		}
		if plan != nil {
			delRate := 0.0
			if res.GeneratedMeasured > 0 {
				delRate = float64(res.DeliveredMeasured) / float64(res.GeneratedMeasured)
			}
			// Wormhole's fail-stop faults never measure post-fault
			// latencies, so its column says so rather than print 0.
			pfP99 := fmt.Sprintf("%12.1f", res.PostFaultP99NS)
			if o.switching == "wormhole" {
				pfP99 = fmt.Sprintf("%12s", "-")
			}
			fmt.Printf("%12.2f %12.2f %12.1f %12.1f %10v %9.3f %8d %6d %8d %9d %s%s\n",
				res.OfferedGbps, res.AcceptedGbps, res.AvgLatencyNS, res.P99LatencyNS, sat,
				delRate, res.Dropped, res.Lost, res.Retried, res.Rerouted, pfP99, recVals)
		} else {
			fmt.Printf("%12.2f %12.2f %12.1f %12.1f %10v%s\n",
				res.OfferedGbps, res.AcceptedGbps, res.AvgLatencyNS, res.P99LatencyNS, sat, recVals)
		}
	}
	return nil
}

// buildSim constructs the simulator for the selected switching mode and
// arms the fault plan and deadlock recovery every run shares.
func buildSim(o opts, cfg dsnet.SimConfig, g *dsnet.Graph, rt dsnet.Router, pat dsnet.TrafficPattern,
	rate float64, plan *dsnet.FaultPlan, rec dsnet.RecoveryConfig) (*dsnet.Sim, error) {
	newSim := dsnet.NewSim
	if o.switching == "wormhole" {
		newSim = dsnet.NewWormSim
	}
	sim, err := newSim(cfg, g, rt, pat, rate)
	if err != nil {
		return nil, err
	}
	if plan != nil {
		if err := sim.SetFaultPlan(plan); err != nil {
			return nil, err
		}
	}
	if o.recover {
		if err := sim.SetRecovery(rec); err != nil {
			return nil, err
		}
	}
	return sim, nil
}

// runCollective replays one collective workload's message DAG to
// completion o.reps times, each under a different seeded rank placement,
// and reports per-rep makespans plus a mean with a 95% CI.
func runCollective(o opts, cfg dsnet.SimConfig, g *dsnet.Graph, mkRouter func() (dsnet.Router, error), plan *dsnet.FaultPlan, rec dsnet.RecoveryConfig, recFP string) error {
	if o.reps < 1 {
		return fmt.Errorf("-reps %d must be >= 1", o.reps)
	}
	chunk := o.chunk
	if chunk < 1 {
		chunk = cfg.PacketFlits
	}
	hosts := g.N() * cfg.HostsPerSwitch
	dag, err := dsnet.GenerateCollective(o.collective, o.collalgo, hosts, chunk)
	if err != nil {
		return err
	}
	fmt.Printf("# %s / %s / %s routing / %s switching, %d switches x %d hosts, seed %d\n",
		o.topo, dag.Name, o.routing, o.switching, g.N(), cfg.HostsPerSwitch, o.seed)
	fmt.Printf("# %d messages, %d flits total, chunk %d flits, phases: %s\n",
		len(dag.Messages), dag.TotalFlits(), chunk, strings.Join(dag.Phases, ", "))
	if plan != nil {
		fmt.Printf("# live faults: %d links failing from cycle %d\n",
			plan.FailureCount(), plan.Events[0].Cycle)
	}
	if o.recover {
		fmt.Printf("# recovery armed: stall threshold %d, confirm %d, abort budget %d, drain-on-fault %v\n",
			rec.StallThresholdCycles, rec.ConfirmCycles, rec.AbortBudget, rec.DrainOnFault)
	}
	fmt.Printf("%4s %12s %10s %10s %10s", "rep", "makespan_us", "delivered", "completed", "cycles")
	for _, ph := range dag.Phases {
		fmt.Printf(" %12s", ph+"_us")
	}
	if plan != nil {
		fmt.Printf(" %8s %6s %8s", "dropped", "lost", "retried")
	}
	if o.recover {
		fmt.Printf(" %7s %7s %7s %7s", "dl_det", "dl_rec", "dl_rel", "dl_lost")
	}
	fmt.Println()
	// repResult memoizes one placement repetition; Watchdog carries the
	// abort message of a run the progress watchdog killed.
	type repResult struct {
		Res      dsnet.SimResult
		Watchdog string
	}
	graphFP := harness.GraphFingerprint(g)
	cfgFP := harness.SimConfigFingerprint(cfg)
	planFP := harness.FaultPlanFingerprint(plan)
	cells := make([]harness.Cell[repResult], 0, o.reps)
	for rep := 0; rep < o.reps; rep++ {
		key := harness.NewKey("dsnsim-collective")
		key.Topo, key.Routing, key.Switching, key.Pattern = o.topo, o.routing, o.switching, dag.Name
		key.N, key.Seed = g.N(), o.seed
		key.Params = []harness.Param{
			harness.Pd("chunk", int64(chunk)), harness.Pd("rep", int64(rep)),
			harness.P("graph", graphFP), harness.P("cfg", cfgFP), harness.P("plan", planFP),
			harness.P("recover", recFP),
		}
		cells = append(cells, harness.Cell[repResult]{Key: key, Run: func() (repResult, error) {
			rt, err := mkRouter()
			if err != nil {
				return repResult{}, err
			}
			// The same seed mixing as analysis.CollectiveSweep, so dsnsim reps
			// reproduce the placements behind dsnfigs -fig collective rows.
			replay := dsnet.CollectiveReplay(dag.Permuted(o.seed + uint64(rep)*0x9e37))
			sim, err := buildSim(o, cfg, g, rt, nil, 0, plan, rec)
			if err != nil {
				return repResult{}, err
			}
			if err := sim.SetReplay(replay); err != nil {
				return repResult{}, err
			}
			res, runErr := sim.Run()
			if runErr != nil {
				return repResult{Res: res, Watchdog: runErr.Error()}, nil
			}
			return repResult{Res: res}, nil
		}})
	}
	repResults, err := harness.Run(runner, "dsnsim-collective", cells)
	if err != nil {
		return err
	}
	var makespans []float64
	for rep, rr := range repResults {
		if rr.Watchdog != "" {
			fmt.Printf("%4d  watchdog: %s\n", rep, rr.Watchdog)
			continue
		}
		res := rr.Res
		fmt.Printf("%4d %12.1f %6d/%-3d %10v %10d", rep,
			res.MakespanNS/1e3, res.ReplayDelivered, res.ReplayMessages,
			res.ReplayCompleted, res.MakespanCycles)
		for _, p := range res.PhaseEndNS {
			fmt.Printf(" %12.1f", p/1e3)
		}
		if plan != nil {
			fmt.Printf(" %8d %6d %8d", res.Dropped, res.Lost, res.Retried)
		}
		if o.recover {
			fmt.Printf(" %7d %7d %7d %7d",
				res.DeadlocksDetected, res.DeadlocksRecovered, res.DeadlocksReleased, res.DeadlocksLost)
		}
		fmt.Println()
		if res.ReplayCompleted {
			makespans = append(makespans, res.MakespanNS/1e3)
		}
	}
	if len(makespans) > 0 {
		mean, ci := dsnet.MeanAndCI(makespans)
		fmt.Printf("# makespan %.1f +/- %.1f us over %d/%d completed reps\n",
			mean, ci, len(makespans), o.reps)
	} else {
		fmt.Printf("# no rep delivered every message\n")
	}
	return nil
}
