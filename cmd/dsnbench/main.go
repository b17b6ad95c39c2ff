// Command dsnbench benchmarks the sweep-orchestration harness and
// verifies its two core guarantees on a real grid:
//
//   - determinism: the parallel run's results are byte-identical to the
//     serial baseline's,
//   - cache fidelity: a fully cached re-run executes zero cells and
//     reproduces the fresh results byte-for-byte.
//
// It runs a standard grid (latency, fault, collective and chaos sweeps)
// three times — serial uncached, parallel populating a cache, parallel
// fully cached — and writes a machine-readable BENCH_sweeps.json with
// wall times, cells executed/cached, throughput, speedup and the replay
// verdict. The exit status is 0 only when both guarantees hold, so a
// bounded invocation doubles as a CI gate.
//
// Usage:
//
//	dsnbench                      # standard grid, all CPUs
//	dsnbench -smoke               # small grid (CI)
//	dsnbench -smoke -switching wormhole
//	dsnbench -j 8 -o BENCH_sweeps.json
//	dsnbench -scaling -j 8       # grid + serial-vs-parallel scaling curve
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dsnet"
)

type opts struct {
	smoke     bool
	scaling   bool
	switching string
	jobs      int
	seed      uint64
	cacheDir  string
	out       string
}

func main() {
	var o opts
	flag.BoolVar(&o.smoke, "smoke", false, "small grid with short simulation windows (CI)")
	flag.BoolVar(&o.scaling, "scaling", false, "also measure the serial-vs-parallel fault-sweep scaling curve and embed it in the report")
	flag.StringVar(&o.switching, "switching", "vct", "chaos campaign engine: vct or wormhole")
	flag.IntVar(&o.jobs, "j", 0, "parallel sweep workers (0: all CPUs)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for topologies and simulations")
	flag.StringVar(&o.cacheDir, "cache", "", "cache directory for the replay check (default: a fresh temp dir)")
	flag.StringVar(&o.out, "o", "BENCH_sweeps.json", "benchmark report output path")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "dsnbench:", err)
		os.Exit(1)
	}
}

// grid parameterizes one benchmark workload.
type grid struct {
	name      string
	cfg       dsnet.SimConfig
	latRates  []float64
	faultN    int
	fracs     []float64
	trials    int
	collSizes []int
	collReps  int
	targets   []string
	chaosN    int
	scenarios int
	mpN       int
	mpRate    float64
	mpFrac    float64
}

func gridFor(smoke bool, seed uint64) grid {
	cfg := dsnet.DefaultSimConfig()
	cfg.Seed = seed
	if smoke {
		cfg.WarmupCycles = 2000
		cfg.MeasureCycles = 4000
		cfg.DrainCycles = 8000
		return grid{
			name:     "smoke",
			cfg:      cfg,
			latRates: []float64{0.02, 0.06, 0.10},
			faultN:   32, fracs: []float64{0.05}, trials: 4,
			collSizes: []int{64}, collReps: 2,
			targets: []string{"torus"}, chaosN: 36, scenarios: 2,
			mpN: 16, mpRate: 0.05, mpFrac: 0.05,
		}
	}
	cfg.WarmupCycles = 5000
	cfg.MeasureCycles = 10000
	cfg.DrainCycles = 20000
	return grid{
		name:     "standard",
		cfg:      cfg,
		latRates: []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12},
		faultN:   64, fracs: []float64{0.02, 0.05, 0.10}, trials: 10,
		collSizes: []int{64}, collReps: 3,
		targets: []string{"torus", "dsn"}, chaosN: 36, scenarios: 5,
		mpN: 32, mpRate: 0.05, mpFrac: 0.05,
	}
}

// bundle is everything one grid pass produces; passes are compared for
// byte identity through its canonical JSON encoding.
type bundle struct {
	Latency    dsnet.LatencyCurve    `json:"latency"`
	Faults     []dsnet.FaultRow      `json:"faults"`
	Collective []dsnet.CollectiveRow `json:"collective"`
	Chaos      []dsnet.ChaosRow      `json:"chaos"`
	Multipath  []dsnet.MultipathRow  `json:"multipath"`
	Diversity  []dsnet.DiversityRow  `json:"diversity"`
}

// runGrid executes the whole grid on one runner.
func runGrid(r *dsnet.SweepRunner, g grid, seed uint64, wormhole bool) (*bundle, error) {
	d, err := dsnet.NewDSN(64, dsnet.CeilLog2(64)-1)
	if err != nil {
		return nil, err
	}
	lat, err := dsnet.LatencySweep(context.Background(), r, g.cfg, d.Graph(), "DSN", "uniform", g.latRates)
	if err != nil {
		return nil, err
	}
	faults, err := dsnet.FaultSweep(context.Background(), r, g.faultN, g.fracs, g.trials, seed)
	if err != nil {
		return nil, err
	}
	coll, err := dsnet.CollectiveSweep(context.Background(), r, g.cfg, g.collSizes, "allreduce", "ring", 0, g.collReps, seed)
	if err != nil {
		return nil, err
	}
	chaosRows, err := dsnet.ChaosSweep(context.Background(), r, g.targets, g.chaosN, seed, g.scenarios, wormhole)
	if err != nil {
		return nil, err
	}
	mp, err := dsnet.MultipathSweep(context.Background(), r, g.cfg, g.mpN, g.mpRate, g.mpFrac, seed)
	if err != nil {
		return nil, err
	}
	div, err := dsnet.DiversitySweep(context.Background(), r, g.mpN, []int{2, 4}, seed)
	if err != nil {
		return nil, err
	}
	return &bundle{Latency: lat, Faults: faults, Collective: coll, Chaos: chaosRows,
		Multipath: mp, Diversity: div}, nil
}

func canonical(b *bundle) ([]byte, error) {
	return json.Marshal(b)
}

func run(o opts) error {
	if o.switching != "vct" && o.switching != "wormhole" {
		return fmt.Errorf("unknown switching mode %q", o.switching)
	}
	var scalingRows []dsnet.BenchScalingRow
	if o.scaling {
		fmt.Println("# scaling: serial-vs-parallel fault sweep")
		rows, err := scaling(o.jobs, o.seed)
		if err != nil {
			return err
		}
		scalingRows = rows
	}
	wormhole := o.switching == "wormhole"
	g := gridFor(o.smoke, o.seed)

	cacheDir := o.cacheDir
	if cacheDir == "" {
		tmp, err := os.MkdirTemp("", "dsnbench-cache-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		cacheDir = tmp
	}
	cache, err := dsnet.OpenSweepCache(cacheDir)
	if err != nil {
		return err
	}

	// Pass A: serial, uncached — the reference results and baseline wall
	// time every other pass is measured against.
	serial := &dsnet.SweepRunner{Jobs: 1, Bench: &dsnet.SweepBench{}}
	fmt.Printf("# dsnbench: %s grid, chaos engine %s\n", g.name, o.switching)
	fmt.Println("# pass A: serial, uncached")
	refBundle, err := runGrid(serial, g, o.seed, wormhole)
	if err != nil {
		return err
	}
	ref, err := canonical(refBundle)
	if err != nil {
		return err
	}

	// Pass B: parallel, populating the cache.
	par := &dsnet.SweepRunner{Jobs: o.jobs, Cache: cache, Bench: &dsnet.SweepBench{}}
	fmt.Printf("# pass B: parallel (-j %d), populating cache\n", par.JobCount())
	parBundle, err := runGrid(par, g, o.seed, wormhole)
	if err != nil {
		return err
	}
	parBytes, err := canonical(parBundle)
	if err != nil {
		return err
	}

	// Pass C: parallel again on the now-complete cache — must execute
	// zero cells and reproduce pass B byte-for-byte.
	replay := &dsnet.SweepRunner{Jobs: o.jobs, Cache: cache, Bench: &dsnet.SweepBench{}}
	fmt.Println("# pass C: parallel, fully cached replay")
	replayBundle, err := runGrid(replay, g, o.seed, wormhole)
	if err != nil {
		return err
	}
	replayBytes, err := canonical(replayBundle)
	if err != nil {
		return err
	}

	executed, cached := 0, 0
	for _, s := range replay.Bench.Sweeps() {
		executed += s.Executed
		cached += s.Cached
	}
	identical := string(ref) == string(parBytes) && string(parBytes) == string(replayBytes)

	report := dsnet.NewBenchReport(par.Bench, par.JobCount())
	report.Grid = g.name
	report.Switching = o.switching
	report.SerialWallMS = serial.Bench.TotalWallMS()
	if report.TotalWallMS > 0 {
		report.Speedup = report.SerialWallMS / report.TotalWallMS
	}
	report.Replay = &dsnet.BenchReplayCheck{Executed: executed, Cached: cached, Identical: identical}
	report.Scaling = scalingRows
	if err := report.WriteFile(o.out); err != nil {
		return err
	}

	fmt.Printf("# serial %.0f ms, parallel %.0f ms (-j %d, gomaxprocs %d): speedup %.2fx\n",
		report.SerialWallMS, report.TotalWallMS, report.Jobs, report.GoMaxProcs, report.Speedup)
	fmt.Printf("# replay: %d executed, %d cached, identical=%v\n", executed, cached, identical)
	if report.CacheErrors > 0 {
		fmt.Printf("# cache: %d write failures (results unaffected; affected cells re-run next time)\n", report.CacheErrors)
	}
	fmt.Printf("# wrote %s\n", o.out)

	if !identical {
		return fmt.Errorf("parallel/cached results are not byte-identical to the serial baseline")
	}
	if executed != 0 {
		return fmt.Errorf("fully cached replay executed %d cells (want 0)", executed)
	}
	return nil
}
