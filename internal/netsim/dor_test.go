package netsim

import (
	"testing"

	"dsnet/internal/routing"
	"dsnet/internal/topology"
	"dsnet/internal/traffic"
)

func TestDORTorusValidation(t *testing.T) {
	tor, err := topology.Torus2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDORTorus(tor, 1); err == nil {
		t.Fatal("1 VC accepted")
	}
	mesh, err := topology.Mesh2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDORTorus(mesh, 4); err == nil {
		t.Fatal("mesh accepted")
	}
}

// Materialize the DOR route of a packet by iterating Candidates, and
// check minimality plus dateline discipline.
func dorTrace(t *testing.T, r *DORTorus, tor *topology.Torus, s, d int) []routing.ChannelHop {
	t.Helper()
	st := PacketState{SrcSw: int32(s), DstSw: int32(d)}
	cur := s
	var hops []routing.ChannelHop
	for cur != d {
		cands := r.Candidates(st, cur, nil)
		if len(cands) == 0 {
			t.Fatalf("DOR stalled at %d toward %d", cur, d)
		}
		c := cands[0]
		if !tor.Graph().HasEdge(cur, int(c.Next)) {
			t.Fatalf("DOR hop (%d,%d) rides missing edge", cur, c.Next)
		}
		hops = append(hops, routing.ChannelHop{From: int32(cur), To: c.Next, Class: uint8(c.VC)})
		st.RtState = c.NewState
		st.Step++
		cur = int(c.Next)
		if len(hops) > tor.N() {
			t.Fatalf("DOR did not terminate %d->%d", s, d)
		}
	}
	if len(hops) != tor.HopDist(s, d) {
		t.Fatalf("DOR route %d->%d length %d, minimal %d", s, d, len(hops), tor.HopDist(s, d))
	}
	return hops
}

// TestDORTorusAllocs pins that a DOR routing decision and the torus hop
// distance allocate nothing: both read each dimension's coordinate
// without building coordinate slices.
func TestDORTorusAllocs(t *testing.T) {
	if RaceDetectorEnabled {
		t.Skip("allocation counts differ under -race")
	}
	tor, err := topology.Torus3D(4, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewDORTorus(tor, 4)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Candidate, 0, 4)
	st := PacketState{SrcSw: 7, DstSw: 40}
	dist := 0
	if a := testing.AllocsPerRun(100, func() { buf = r.Candidates(st, 7, buf[:0]) }); a != 0 || len(buf) != 2 {
		t.Errorf("Candidates: %.0f allocations, %d candidates; want 0 allocations, 2 candidates", a, len(buf))
	}
	if a := testing.AllocsPerRun(100, func() { dist = tor.HopDist(7, 40) }); a != 0 || dist != 5 {
		t.Errorf("HopDist: %.0f allocations, distance %d; want 0 allocations, distance 5", a, dist)
	}
}

func TestDORTorusMinimalAllPairs(t *testing.T) {
	tor, err := topology.Torus2D(6, 9)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewDORTorus(tor, 2)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < tor.N(); s++ {
		for d := 0; d < tor.N(); d++ {
			if s != d {
				dorTrace(t, r, tor, s, d)
			}
		}
	}
}

// The dateline scheme must make the DOR channel dependency graph acyclic
// (deadlock freedom on the torus).
func TestDORTorusCDGAcyclic(t *testing.T) {
	for _, dims := range [][]int{{8, 8}, {4, 4, 4}, {3, 5}} {
		tor, err := topology.NewTorus(dims, true)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewDORTorus(tor, 2)
		if err != nil {
			t.Fatal(err)
		}
		cdg := routing.NewCDG(tor.Graph(), 2)
		for s := 0; s < tor.N(); s++ {
			for d := 0; d < tor.N(); d++ {
				if s == d {
					continue
				}
				cdg.AddRoute(dorTrace(t, r, tor, s, d))
			}
		}
		if cyc := cdg.FindCycle(); cyc != nil {
			t.Fatalf("dims %v: DOR CDG cycle: %v", dims, cyc)
		}
	}
}

// Without the dateline VC switch, wraparound DOR deadlocks: the CDG has
// a ring cycle. This guards the dateline logic against regression.
func TestDORWithoutDatelineHasCycle(t *testing.T) {
	tor, err := topology.Torus2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewDORTorus(tor, 2)
	if err != nil {
		t.Fatal(err)
	}
	cdg := routing.NewCDG(tor.Graph(), 1)
	for s := 0; s < tor.N(); s++ {
		for d := 0; d < tor.N(); d++ {
			if s == d {
				continue
			}
			hops := dorTrace(t, r, tor, s, d)
			for i := range hops {
				hops[i].Class = 0 // collapse the dateline VCs
			}
			cdg.AddRoute(hops)
		}
	}
	if cdg.FindCycle() == nil {
		t.Fatal("expected a CDG cycle without dateline VCs")
	}
}

func TestDORTorusSimulation(t *testing.T) {
	tor, err := topology.Torus2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortCfg()
	r, err := NewDORTorus(tor, cfg.VCs)
	if err != nil {
		t.Fatal(err)
	}
	pat := traffic.Uniform{Hosts: tor.N() * cfg.HostsPerSwitch}
	sim, err := NewSim(cfg, tor.Graph(), r, pat, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatalf("DOR saturated at 5%% load: %v", res)
	}
	if res.DeliveredMeasured == 0 {
		t.Fatal("nothing delivered")
	}
	// DOR on a torus is minimal, so zero-load latency should be close to
	// the adaptive router's.
	adaptive := runSim(t, cfg, tor.Graph(), 0.05)
	if res.AvgLatencyNS > 1.15*adaptive.AvgLatencyNS {
		t.Fatalf("DOR latency %.0f ns far above adaptive %.0f ns", res.AvgLatencyNS, adaptive.AvgLatencyNS)
	}
}
