package netsim_test

import (
	"fmt"
	"testing"

	"dsnet/internal/collectives"
	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/netsim"
	"dsnet/internal/recovery"
	"dsnet/internal/topology"
	"dsnet/internal/traffic"
)

// BenchmarkSimCycle measures raw simulator throughput in simulated
// switch-cycles per host second, with allocations per run: the paper's
// 8×8 torus at moderate load, DSN-64 at the three Fig. 10 loads of the
// repository benchmark (near idle, moderate, just below the knee), the
// wormhole engine on DSN-64 at the moderate load with 20-flit buffers
// and on the 36-switch chaos target (DSN-V, source-routed) at its
// sparse safe rate with deadlock recovery armed, and a contention-bound
// halving-doubling allreduce replayed on a 16-switch DSN.
func BenchmarkSimCycle(b *testing.B) {
	tor, err := topology.Torus2D(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	torCfg := netsim.Default()
	torCfg.WarmupCycles, torCfg.MeasureCycles, torCfg.DrainCycles = 1000, 3000, 2000
	b.Run("torus8x8/load=0.1", func(b *testing.B) { benchOpenLoop(b, torCfg, tor.Graph(), 0.1) })

	dsn64, err := core.New(64, core.CeilLog2(64)-1)
	if err != nil {
		b.Fatal(err)
	}
	fig10 := netsim.Default()
	fig10.WarmupCycles, fig10.MeasureCycles, fig10.DrainCycles = 2000, 4000, 4000
	for _, rate := range []float64{0.01, 0.08, 0.15} {
		b.Run(fmt.Sprintf("dsn64/load=%g", rate), func(b *testing.B) { benchOpenLoop(b, fig10, dsn64.Graph(), rate) })
	}
	worm := fig10
	worm.BufFlitsPerVC = 20
	b.Run("worm-dsn64/load=0.08", func(b *testing.B) {
		g := dsn64.Graph()
		rt, err := netsim.NewDuatoUpDown(g, worm.VCs)
		if err != nil {
			b.Fatal(err)
		}
		pat := traffic.Uniform{Hosts: g.N() * worm.HostsPerSwitch}
		schedule := worm.WarmupCycles + worm.MeasureCycles + worm.DrainCycles
		benchRun(b, g.N(), func() (*netsim.Sim, error) { return netsim.NewWormSim(worm, g, rt, pat, 0.08) },
			func(netsim.Result) int64 { return schedule })
	})
	b.Run("worm-dsnv36/rate=0.02/recover", func(b *testing.B) {
		d, err := core.NewV(36)
		if err != nil {
			b.Fatal(err)
		}
		rt, err := netsim.NewDSNSourceRouted(d)
		if err != nil {
			b.Fatal(err)
		}
		cfg := netsim.Default()
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 2000, 8000, 10000
		g := d.Graph()
		pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
		schedule := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles
		benchRun(b, g.N(), func() (*netsim.Sim, error) {
			s, err := netsim.NewWormSim(cfg, g, rt, pat, 0.02)
			if err != nil {
				return nil, err
			}
			return s, s.SetRecovery(recovery.Default())
		}, func(netsim.Result) int64 { return schedule })
	})

	b.Run("allreduce-hd/dsn16", func(b *testing.B) {
		d, err := core.New(16, core.CeilLog2(16)-1)
		if err != nil {
			b.Fatal(err)
		}
		cfg := netsim.Default()
		dag, err := collectives.Generate("allreduce", "halving-doubling", d.N*cfg.HostsPerSwitch, cfg.PacketFlits)
		if err != nil {
			b.Fatal(err)
		}
		replay := collectives.ToReplay(dag.Permuted(1))
		rt, err := netsim.NewDuatoUpDown(d.Graph(), cfg.VCs)
		if err != nil {
			b.Fatal(err)
		}
		benchRun(b, d.N, func() (*netsim.Sim, error) { return netsim.NewSimReplay(cfg, d.Graph(), rt, replay) },
			func(res netsim.Result) int64 { return res.MakespanCycles })
	})
}

func benchOpenLoop(b *testing.B, cfg netsim.Config, g *graph.Graph, rate float64) {
	rt, err := netsim.NewDuatoUpDown(g, cfg.VCs)
	if err != nil {
		b.Fatal(err)
	}
	pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
	schedule := cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles
	benchRun(b, g.N(), func() (*netsim.Sim, error) { return netsim.NewSim(cfg, g, rt, pat, rate) },
		func(netsim.Result) int64 { return schedule })
}

// benchRun times b.N construct-and-run iterations of one simulation and
// reports simulated switch-cycles per second; cycles gives a run's
// simulated length.
func benchRun(b *testing.B, switches int, build func() (*netsim.Sim, error), cycles func(netsim.Result) int64) {
	b.ReportAllocs()
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		sim, err := build()
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			b.Fatal(err)
		}
		total += cycles(res)
	}
	b.ReportMetric(float64(total)*float64(switches)/b.Elapsed().Seconds(), "switch-cycles/s")
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
