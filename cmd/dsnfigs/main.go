// Command dsnfigs regenerates the paper's figures as plain-text tables.
//
// Usage:
//
//	dsnfigs -fig 7        # diameter vs size
//	dsnfigs -fig 8        # average shortest path vs size
//	dsnfigs -fig 9        # average cable length vs size
//	dsnfigs -fig 10a      # latency vs accepted, uniform traffic
//	dsnfigs -fig 10b      # ... bit reversal
//	dsnfigs -fig 10c      # ... neighboring
//	dsnfigs -fig balance     # custom routing vs up*/down* traffic balance
//	dsnfigs -fig collective  # closed-loop ring-allreduce makespans
//	dsnfigs -fig multipath   # sprayed multipath vs single-path routing
//	dsnfigs -fig diversity   # edge-disjoint paths vs the min-cut bound
//	dsnfigs -fig pareto      # design-space search front: ASPL vs cost
//	dsnfigs -fig all
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dsnet"
)

var (
	jsonOut bool
	// runner executes the ported sweeps: a bounded worker pool with an
	// optional content-addressed cache. Parallel assembly is
	// deterministic, so tables are bit-identical at any -j.
	runner *dsnet.SweepRunner
)

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 7, 8, 9, 10a, 10b, 10c, balance, bottleneck, faults, faultsim, related, switching, physical, throughput, ladder, collective, multipath, diversity, pareto, all")
		seed    = flag.Uint64("seed", 1, "seed for randomized topologies and simulations")
		quick   = flag.Bool("quick", false, "shorter simulation windows (for smoke runs)")
		jobs    = flag.Int("j", 0, "parallel sweep workers (0: all CPUs)")
		cache   = flag.String("cache", dsnet.DefaultSweepCacheDir, "sweep result cache directory")
		nocache = flag.Bool("nocache", false, "bypass the sweep result cache")
		bench   = flag.String("bench", "", "write machine-readable sweep benchmarks to this JSON file")
	)
	flag.BoolVar(&jsonOut, "json", false, "emit machine-readable JSON instead of tables")
	flag.Parse()
	var err error
	runner, err = dsnet.NewSweepRunner(*jobs, *cache, *nocache)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsnfigs:", err)
		os.Exit(1)
	}
	if err := run(*fig, *seed, *quick); err != nil {
		fmt.Fprintln(os.Stderr, "dsnfigs:", err)
		os.Exit(1)
	}
	if *bench != "" {
		if err := dsnet.NewBenchReport(runner.Bench, runner.JobCount()).WriteFile(*bench); err != nil {
			fmt.Fprintln(os.Stderr, "dsnfigs:", err)
			os.Exit(1)
		}
	}
}

// emitJSON writes one figure's data as a JSON document and reports
// whether JSON mode handled the output.
func emitJSON(figure string, data any) bool {
	if !jsonOut {
		return false
	}
	doc := map[string]any{"figure": figure, "data": data}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "dsnfigs: json:", err)
	}
	return true
}

var sweepSizes = []int{5, 6, 7, 8, 9, 10, 11}

func run(fig string, seed uint64, quick bool) error {
	switch fig {
	case "7", "8":
		rows, err := dsnet.PathSweep(context.Background(), runner, sweepSizes, []uint64{seed, seed + 1, seed + 2})
		if err != nil {
			return err
		}
		if emitJSON("fig"+fig, rows) {
			return nil
		}
		if fig == "7" {
			fmt.Println("# Figure 7: diameter (hops) vs network size")
			return dsnet.WritePathTable(os.Stdout, rows, "diameter")
		}
		fmt.Println("# Figure 8: average shortest path length (hops) vs network size")
		return dsnet.WritePathTable(os.Stdout, rows, "aspl")
	case "9":
		rows, err := dsnet.CableSweep(context.Background(), runner, sweepSizes, []uint64{seed, seed + 1, seed + 2}, dsnet.DefaultLayoutConfig())
		if err != nil {
			return err
		}
		if emitJSON("fig9", rows) {
			return nil
		}
		fmt.Println("# Figure 9: average cable length (m) vs network size")
		dsnet.WriteCableTable(os.Stdout, rows)
		return nil
	case "10a":
		return fig10("uniform", seed, quick)
	case "10b":
		return fig10("bit-reversal", seed, quick)
	case "10c":
		return fig10("neighboring", seed, quick)
	case "balance":
		return balance(seed, quick)
	case "bottleneck":
		rows, err := dsnet.BottleneckSweep(64, seed)
		if err != nil {
			return err
		}
		if emitJSON("bottleneck", rows) {
			return nil
		}
		fmt.Println("# Edge betweenness (theoretical channel load) at 64 switches")
		dsnet.WriteBottleneckTable(os.Stdout, rows)
		return nil
	case "faults":
		rows, err := dsnet.FaultSweep(context.Background(), runner, 64, []float64{0.02, 0.05, 0.10}, 10, seed)
		if err != nil {
			return err
		}
		if emitJSON("faults", rows) {
			return nil
		}
		fmt.Println("# Random link failures at 64 switches (10 trials each)")
		dsnet.WriteFaultTable(os.Stdout, rows)
		return nil
	case "faultsim":
		rows, err := dsnet.DegradationSweep(context.Background(), runner, simConfig(seed, quick), 64, []float64{0, 0.02, 0.05, 0.10}, 0.06, seed)
		if err != nil {
			return err
		}
		if emitJSON("faultsim", rows) {
			return nil
		}
		fmt.Println("# Graceful degradation under live link failures at 64 switches, uniform 0.06 flits/cycle/host")
		dsnet.WriteDegradationTable(os.Stdout, rows)
		return nil
	case "switching":
		graphs, err := dsnet.BuildComparison(64, seed)
		if err != nil {
			return err
		}
		pts, err := dsnet.SwitchingComparison(simConfig(seed, quick), graphs["DSN"], "uniform",
			[]float64{0.02, 0.06, 0.10, 0.14, 0.18}, 20)
		if err != nil {
			return err
		}
		if emitJSON("switching", pts) {
			return nil
		}
		fmt.Println("# VCT vs wormhole switching on DSN, uniform traffic (Section V.A regimes)")
		dsnet.WriteSwitchingTable(os.Stdout, pts)
		return nil
	case "throughput":
		var rows []dsnet.ThroughputRow
		for _, pattern := range []string{"uniform", "bit-reversal", "neighboring"} {
			r, err := dsnet.ThroughputComparison(simConfig(seed, quick), pattern, seed)
			if err != nil {
				return err
			}
			rows = append(rows, r...)
		}
		if emitJSON("throughput", rows) {
			return nil
		}
		fmt.Println("# Saturation throughput (Section VII.A metric), 64 switches, adaptive routing")
		dsnet.WriteThroughputTable(os.Stdout, rows)
		return nil
	case "ladder":
		rows, err := dsnet.LadderSweep(1024, dsnet.DefaultLayoutConfig())
		if err != nil {
			return err
		}
		if emitJSON("ladder", rows) {
			return nil
		}
		dsnet.WriteLadderTable(os.Stdout, 1024, rows)
		return nil
	case "physical":
		rows, err := dsnet.PhysicalLatencySweep(sweepSizes, []uint64{seed},
			dsnet.DefaultLayoutConfig(), dsnet.DefaultPhysicalConst())
		if err != nil {
			return err
		}
		if emitJSON("physical", rows) {
			return nil
		}
		fmt.Println("# Analytic end-to-end latency: hops x 100ns + cable x 5ns/m (Section I model)")
		dsnet.WritePhysicalTable(os.Stdout, rows)
		return nil
	case "related":
		rows, err := dsnet.RelatedWork(!quick)
		if err != nil {
			return err
		}
		if emitJSON("related", rows) {
			return nil
		}
		fmt.Println("# Section III related-work diameter-and-degree comparison")
		dsnet.WriteRelatedTable(os.Stdout, rows)
		return nil
	case "collective":
		sizes := []int{64, 256}
		reps := 3
		if quick {
			sizes = []int{64}
			reps = 2
		}
		rows, err := dsnet.CollectiveSweep(context.Background(), runner, simConfig(seed, quick), sizes, "allreduce", "ring", 0, reps, seed)
		if err != nil {
			return err
		}
		if emitJSON("collective", rows) {
			return nil
		}
		fmt.Println("# Closed-loop ring allreduce: makespan across seeded rank placements")
		dsnet.WriteCollectiveTable(os.Stdout, rows)
		return nil
	case "multipath":
		// Single-path vs sprayed multipath on the Section VII workloads:
		// hotspot, mid-run link faults, and a ring allreduce. Quick mode
		// shrinks the fabric, not the grid, so every scheme still runs.
		n := 64
		if quick {
			n = 16
		}
		rows, err := dsnet.MultipathSweep(context.Background(), runner, simConfig(seed, quick), n, 0.05, 0.05, seed)
		if err != nil {
			return err
		}
		if emitJSON("multipath", rows) {
			return nil
		}
		fmt.Printf("# Multipath spraying vs single-path routing at %d switches, 0.05 flits/cycle/host, 5%% mid-run link faults\n", n)
		dsnet.WriteMultipathTable(os.Stdout, rows)
		return nil
	case "diversity":
		n := 64
		if quick {
			n = 16
		}
		rows, err := dsnet.DiversitySweep(context.Background(), runner, n, []int{2, 4, 8}, seed)
		if err != nil {
			return err
		}
		if emitJSON("diversity", rows) {
			return nil
		}
		fmt.Printf("# Path diversity at %d switches: realized edge-disjoint paths vs the Menger min-cut bound\n", n)
		dsnet.WriteDiversityTable(os.Stdout, rows)
		return nil
	case "pareto":
		// Quality/cost plane at 64 switches: the seeded design-space
		// search's Pareto front over the Figure 8 quality axis (ASPL)
		// against the Section VI.B itemized cost. The ASPL objective keeps
		// the figure simulation-free; dsnsearch runs the throughput-aware
		// searches.
		cfg := dsnet.DefaultSearchConfig(64, 7)
		cfg.Seed = seed
		cfg.Budget = 48
		cfg.Eval.Objective = "aspl"
		if quick {
			cfg.Budget = 24
		}
		res, _, err := dsnet.SearchRun(context.Background(), runner, cfg)
		if err != nil {
			return err
		}
		if emitJSON("pareto", res.Front) {
			return nil
		}
		fmt.Printf("# Pareto front: ASPL vs itemized cost at 64 switches, degree <= 7 (seeded search, budget %d)\n", cfg.Budget)
		dsnet.WriteParetoTable(os.Stdout, res.Objective, dsnet.SearchPoints(res.Front))
		return nil
	case "all":
		for _, f := range []string{"7", "8", "9", "10a", "10b", "10c", "balance", "bottleneck", "faults", "faultsim", "related", "switching", "physical", "throughput", "ladder", "collective", "multipath", "diversity", "pareto"} {
			if err := run(f, seed, quick); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
}

func simConfig(seed uint64, quick bool) dsnet.SimConfig {
	cfg := dsnet.DefaultSimConfig()
	cfg.Seed = seed
	if quick {
		cfg.WarmupCycles = 3000
		cfg.MeasureCycles = 6000
		cfg.DrainCycles = 8000
	}
	return cfg
}

func fig10(pattern string, seed uint64, quick bool) error {
	rates := []float64{0.01, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14}
	curves, err := dsnet.Fig10Curves(context.Background(), runner, simConfig(seed, quick), pattern, rates, seed)
	if err != nil {
		return err
	}
	if emitJSON("fig10-"+pattern, curves) {
		return nil
	}
	fmt.Printf("# Figure 10 (%s): latency vs accepted traffic, 64 switches, 4 hosts/switch\n", pattern)
	dsnet.WriteLatencyTable(os.Stdout, curves)
	return nil
}

func balance(seed uint64, quick bool) error {
	res, err := dsnet.BalanceComparison(simConfig(seed, quick), 64, 0.01)
	if err != nil {
		return err
	}
	if emitJSON("balance", res) {
		return nil
	}
	fmt.Println("# Traffic balance: DSN custom routing vs deterministic up*/down*")
	fmt.Printf("%-12s %10s %10s %10s %12s\n", "scheme", "cov", "gini", "max/avg", "latency_ns")
	for _, r := range res {
		fmt.Printf("%-12s %10.3f %10.3f %10.2f %12.1f\n", r.Scheme, r.CoV, r.Gini, r.MaxAvg, r.Result.AvgLatencyNS)
	}
	return nil
}
