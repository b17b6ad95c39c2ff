package netsim_test

import (
	"fmt"
	"runtime/debug"
	"testing"

	"dsnet/internal/collectives"
	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/netsim"
	"dsnet/internal/recovery"
	"dsnet/internal/topology"
	"dsnet/internal/traffic"
)

// simCycleCase is one BenchmarkSimCycle case: build constructs a fresh
// simulation of the given number of switches, cycles gives a run's
// simulated length, and allocs is the exact number of allocations one
// build-and-run makes, which TestSimCycleAllocs enforces.
type simCycleCase struct {
	name     string
	switches int
	build    func() (*netsim.Sim, error)
	cycles   func(netsim.Result) int64
	allocs   uint64
}

// simCycleCases lists the BenchmarkSimCycle cases: the paper's 8×8
// torus at moderate load, DSN-64 at the three Fig. 10 loads of the
// repository benchmark (near idle, moderate, just below the knee), the
// wormhole engine on DSN-64 at the moderate load with 20-flit buffers
// and on the 36-switch chaos target (DSN-V, source-routed) at its
// sparse safe rate with deadlock recovery armed, and a contention-bound
// halving-doubling allreduce replayed on a 16-switch DSN.
func simCycleCases(tb testing.TB) []simCycleCase {
	tor, err := topology.Torus2D(8, 8)
	if err != nil {
		tb.Fatal(err)
	}
	torCfg := netsim.Default()
	torCfg.WarmupCycles, torCfg.MeasureCycles, torCfg.DrainCycles = 1000, 3000, 2000
	cases := []simCycleCase{openLoopCase(tb, "torus8x8/load=0.1", torCfg, tor.Graph(), 0.1, 7054)}

	dsn64, err := core.New(64, core.CeilLog2(64)-1)
	if err != nil {
		tb.Fatal(err)
	}
	fig10 := netsim.Default()
	fig10.WarmupCycles, fig10.MeasureCycles, fig10.DrainCycles = 2000, 4000, 4000
	for _, l := range []struct {
		rate   float64
		allocs uint64
	}{{0.01, 2000}, {0.08, 8347}, {0.15, 14829}} {
		cases = append(cases, openLoopCase(tb, fmt.Sprintf("dsn64/load=%g", l.rate), fig10, dsn64.Graph(), l.rate, l.allocs))
	}

	worm := fig10
	worm.BufFlitsPerVC = 20
	g64 := dsn64.Graph()
	rt64, err := netsim.NewDuatoUpDown(g64, worm.VCs)
	if err != nil {
		tb.Fatal(err)
	}
	pat64 := traffic.Uniform{Hosts: g64.N() * worm.HostsPerSwitch}
	cases = append(cases, simCycleCase{
		name: "worm-dsn64/load=0.08", switches: g64.N(), allocs: 7318,
		build:  func() (*netsim.Sim, error) { return netsim.NewWormSim(worm, g64, rt64, pat64, 0.08) },
		cycles: schedule(worm),
	})

	dv, err := core.NewV(36)
	if err != nil {
		tb.Fatal(err)
	}
	srcRouted, err := netsim.NewDSNSourceRouted(dv)
	if err != nil {
		tb.Fatal(err)
	}
	rec := netsim.Default()
	rec.WarmupCycles, rec.MeasureCycles, rec.DrainCycles = 2000, 8000, 10000
	patV := traffic.Uniform{Hosts: dv.N * rec.HostsPerSwitch}
	cases = append(cases, simCycleCase{
		name: "worm-dsnv36/rate=0.02/recover", switches: dv.N, allocs: 2615,
		build: func() (*netsim.Sim, error) {
			s, err := netsim.NewWormSim(rec, dv.Graph(), srcRouted, patV, 0.02)
			if err != nil {
				return nil, err
			}
			return s, s.SetRecovery(recovery.Default())
		},
		cycles: schedule(rec),
	})

	d16, err := core.New(16, core.CeilLog2(16)-1)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := netsim.Default()
	dag, err := collectives.Generate("allreduce", "halving-doubling", d16.N*cfg.HostsPerSwitch, cfg.PacketFlits)
	if err != nil {
		tb.Fatal(err)
	}
	replay := collectives.ToReplay(dag.Permuted(1))
	rt16, err := netsim.NewDuatoUpDown(d16.Graph(), cfg.VCs)
	if err != nil {
		tb.Fatal(err)
	}
	return append(cases, simCycleCase{
		name: "allreduce-hd/dsn16", switches: d16.N, allocs: 12919,
		build:  func() (*netsim.Sim, error) { return netsim.NewSimReplay(cfg, d16.Graph(), rt16, replay) },
		cycles: func(res netsim.Result) int64 { return res.MakespanCycles },
	})
}

// openLoopCase is a VCT case under uniform open-loop traffic with the
// Duato up*/down* router.
func openLoopCase(tb testing.TB, name string, cfg netsim.Config, g *graph.Graph, rate float64, allocs uint64) simCycleCase {
	rt, err := netsim.NewDuatoUpDown(g, cfg.VCs)
	if err != nil {
		tb.Fatal(err)
	}
	pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
	return simCycleCase{
		name: name, switches: g.N(), allocs: allocs,
		build:  func() (*netsim.Sim, error) { return netsim.NewSim(cfg, g, rt, pat, rate) },
		cycles: schedule(cfg),
	}
}

// schedule gives an open-loop run's simulated length: its full
// warmup, measurement and drain schedule.
func schedule(cfg netsim.Config) func(netsim.Result) int64 {
	n := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles
	return func(netsim.Result) int64 { return n }
}

// BenchmarkSimCycle measures raw simulator throughput in simulated
// switch-cycles per host second, with allocations per run, on each of
// simCycleCases.
func BenchmarkSimCycle(b *testing.B) {
	for _, c := range simCycleCases(b) {
		b.Run(c.name, func(b *testing.B) { benchRun(b, c) })
	}
}

// TestSimCycleAllocs runs every BenchmarkSimCycle case once and requires
// its exact allocation count: the simulator's allocations are
// deterministic, so any change to them shows here. The race detector
// allocates on its own, so the test needs a build without -race.
func TestSimCycleAllocs(t *testing.T) {
	if netsim.RaceDetectorEnabled {
		t.Skip("allocation counts differ under -race")
	}
	// A garbage collection during a run now and then adds a runtime
	// allocation of its own; with collection off the count is the
	// simulator's alone.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range simCycleCases(t) {
		allocs := testing.AllocsPerRun(1, func() {
			s, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if got := uint64(allocs); got != c.allocs {
			t.Errorf("%s: %d allocations per run, want exactly %d", c.name, got, c.allocs)
		}
	}
}

// benchRun times b.N construct-and-run iterations of one case and
// reports simulated switch-cycles per second.
func benchRun(b *testing.B, c simCycleCase) {
	b.ReportAllocs()
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		sim, err := c.build()
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		total += c.cycles(res)
	}
	b.ReportMetric(float64(total)*float64(c.switches)/b.Elapsed().Seconds(), "switch-cycles/s")
}

// BenchmarkVCAblation contrasts 2 vs 4 virtual channels on the DSN at the
// same load — the paper fixes 4 VCs; this quantifies the choice.
func BenchmarkVCAblation(b *testing.B) {
	for _, vcs := range []int{2, 4} {
		b.Run(map[int]string{2: "2vc", 4: "4vc"}[vcs], func(b *testing.B) {
			tor, err := topology.Torus2D(8, 8)
			if err != nil {
				b.Fatal(err)
			}
			cfg := netsim.Default()
			cfg.VCs = vcs
			cfg.WarmupCycles = 1000
			cfg.MeasureCycles = 3000
			cfg.DrainCycles = 3000
			rt, err := netsim.NewDuatoUpDown(tor.Graph(), vcs)
			if err != nil {
				b.Fatal(err)
			}
			pat := traffic.Uniform{Hosts: 256}
			var lat float64
			for i := 0; i < b.N; i++ {
				sim, err := netsim.NewSim(cfg, tor.Graph(), rt, pat, 0.1)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run()
				if err != nil {
					b.Fatal(err)
				}
				lat = res.AvgLatencyNS
			}
			b.ReportMetric(lat, "latency_ns")
		})
	}
}

// BenchmarkPacketSizeAblation quantifies the paper's choice of small
// 33-flit packets for latency-sensitive traffic.
func BenchmarkPacketSizeAblation(b *testing.B) {
	for _, flits := range []int{9, 33, 129} {
		b.Run(map[int]string{9: "9flit", 33: "33flit", 129: "129flit"}[flits], func(b *testing.B) {
			tor, err := topology.Torus2D(8, 8)
			if err != nil {
				b.Fatal(err)
			}
			cfg := netsim.Default()
			cfg.PacketFlits = flits
			cfg.BufFlitsPerVC = flits
			cfg.WarmupCycles = 1000
			cfg.MeasureCycles = 3000
			cfg.DrainCycles = 3000
			rt, err := netsim.NewDuatoUpDown(tor.Graph(), cfg.VCs)
			if err != nil {
				b.Fatal(err)
			}
			pat := traffic.Uniform{Hosts: 256}
			var lat float64
			for i := 0; i < b.N; i++ {
				sim, err := netsim.NewSim(cfg, tor.Graph(), rt, pat, 0.05)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run()
				if err != nil {
					b.Fatal(err)
				}
				lat = res.AvgLatencyNS
			}
			b.ReportMetric(lat, "latency_ns")
		})
	}
}
