package netsim

import (
	"math"
	"reflect"
	"testing"

	"dsnet/internal/graph"
	"dsnet/internal/layout"
	"dsnet/internal/topology"
	"dsnet/internal/traffic"
)

func TestCableAwareValidation(t *testing.T) {
	g := torusGraph(t)
	rt, err := NewDuatoUpDown(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	l, err := layout.New(32, layout.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l64, err := layout.New(64, layout.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		s, err := e.new(Default(), g, rt, traffic.Uniform{Hosts: 256}, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetCableDelays(l, 5); err == nil {
			t.Errorf("%s: size mismatch accepted", e.name)
		}
		// Values with no int64 cycle count are errors, not one-cycle
		// links.
		for _, ns := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
			if err := s.SetCableDelays(l64, ns); err == nil {
				t.Errorf("%s: propagation %g ns/m accepted", e.name, ns)
			}
		}
		if err := s.SetCableDelays(l64, 5); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
	}
}

// The timing wheel is sized when Run starts, so cable-aware delays set
// before or after the fault plan build the same wheel and give the same
// run, including the order in which a fault epoch drops packets caught
// on dead wires.
func TestCableDelaysCallOrder(t *testing.T) {
	g := torusGraph(t)
	l, err := layout.New(64, layout.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 1000, 2000, 6000
	plan, err := RandomLinkFaults(g, 0.1, 1000, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		run := func(cableFirst bool) (Result, int) {
			rt, err := NewDuatoUpDown(g, cfg.VCs)
			if err != nil {
				t.Fatal(err)
			}
			s, err := e.new(cfg, g, rt, traffic.Uniform{Hosts: 256}, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			steps := []func() error{
				func() error { return s.SetCableDelays(l, 50) },
				func() error { return s.SetFaultPlan(plan) },
			}
			if !cableFirst {
				steps[0], steps[1] = steps[1], steps[0]
			}
			for _, step := range steps {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			res, err := s.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			return res, len(s.wheel.slots)
		}
		a, aSlots := run(true)
		b, bSlots := run(false)
		if e.name == "vct" && a.Dropped == 0 {
			t.Fatal("vct: no packet died on a wire; the scrub order went unexercised")
		}
		if aSlots != bSlots {
			t.Fatalf("%s: call order changed the timing wheel: %d vs %d slots", e.name, aSlots, bSlots)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: call order changed the run:\ncable first %v\nplan first  %v", e.name, a, b)
		}
	}
}

// Cable-aware delays penalize long cables: the RANDOM topology (6.7 m
// average cables at this scale) loses more latency than DSN (4.7 m) when
// the wire time is physical instead of the constant 20 ns.
func TestCableAwarePenalizesLongCables(t *testing.T) {
	cfg := shortCfg()
	l, err := layout.New(64, layout.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	random, err := topology.DLNRandom(64, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(g *graph.Graph, cableAware bool, nsPerM float64) Result {
		rt, err := NewDuatoUpDown(g, cfg.VCs)
		if err != nil {
			t.Fatal(err)
		}
		pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
		sim, err := NewSim(cfg, g, rt, pat, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		if cableAware {
			if err := sim.SetCableDelays(l, nsPerM); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	randConst := run(random, false, 5)
	// At 64 switches the floor is 4 cabinets and the average cable only
	// ~3.7 m, so physical 5 ns/m propagation (~18 ns) is slightly CHEAPER
	// than the paper's constant 20 ns — the model should reflect that.
	randCable := run(random, true, 5)
	if randCable.AvgLatencyNS >= randConst.AvgLatencyNS {
		t.Fatalf("5 ns/m on short cables should beat the 20 ns constant: %.0f vs %.0f ns",
			randCable.AvgLatencyNS, randConst.AvgLatencyNS)
	}
	// With 10x the propagation (e.g. electrical cabling) the long random
	// cables must clearly cost latency.
	randSlow := run(random, true, 50)
	if randSlow.AvgLatencyNS <= randConst.AvgLatencyNS {
		t.Fatalf("50 ns/m latency %.0f ns not above constant-delay %.0f ns",
			randSlow.AvgLatencyNS, randConst.AvgLatencyNS)
	}
	if randSlow.AvgLatencyNS > 3*randConst.AvgLatencyNS {
		t.Fatalf("50 ns/m latency %.0f ns implausibly above constant-delay %.0f ns",
			randSlow.AvgLatencyNS, randConst.AvgLatencyNS)
	}
}

func TestCableAwareDSNBeatsRandomGapNarrows(t *testing.T) {
	// Under physical wire delays DSN keeps its advantage over the torus.
	cfg := shortCfg()
	l, err := layout.New(64, layout.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := dsnGraph(t)
	tor := torusGraph(t)
	runCable := func(g *graph.Graph) Result {
		rt, err := NewDuatoUpDown(g, cfg.VCs)
		if err != nil {
			t.Fatal(err)
		}
		pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
		sim, err := NewSim(cfg, g, rt, pat, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.SetCableDelays(l, 5); err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dsnRes := runCable(d.Graph())
	torRes := runCable(tor)
	if dsnRes.AvgLatencyNS >= torRes.AvgLatencyNS {
		t.Fatalf("cable-aware DSN %.0f ns not below torus %.0f ns",
			dsnRes.AvgLatencyNS, torRes.AvgLatencyNS)
	}
}

func TestWormCableAware(t *testing.T) {
	g := torusGraph(t)
	l, err := layout.New(64, layout.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := wormCfg()
	rt, err := NewDuatoUpDown(g, cfg.VCs)
	if err != nil {
		t.Fatal(err)
	}
	pat := traffic.Uniform{Hosts: 256}
	sim, err := NewWormSim(cfg, g, rt, pat, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetCableDelays(l, -1); err == nil {
		t.Fatal("negative propagation accepted")
	}
	if err := sim.SetCableDelays(l, 5); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated || res.DeliveredMeasured == 0 {
		t.Fatalf("cable-aware wormhole: %v", res)
	}
}
