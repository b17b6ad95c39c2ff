package netsim

import (
	"reflect"
	"testing"

	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/traffic"
)

// twoSwitchGraph is the smallest fabric with cross traffic: two switches
// joined by a single link, so killing that link is a guaranteed hit on
// every cross-switch packet.
func twoSwitchGraph() *graph.Graph {
	g := graph.New(2)
	g.AddEdge(0, 1, graph.KindRing)
	return g
}

func runFaultSim(t *testing.T, cfg Config, g *graph.Graph, rate float64, plan *FaultPlan) Result {
	t.Helper()
	rt, err := NewDuatoUpDown(g, cfg.VCs)
	if err != nil {
		t.Fatal(err)
	}
	pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
	s, err := NewSim(cfg, g, rt, pat, rate)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		if err := s.SetFaultPlan(plan); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkFaultConservation(t *testing.T, res Result) {
	t.Helper()
	if res.GeneratedTotal != res.DeliveredTotal+res.InFlightAtEnd+res.Lost {
		t.Fatalf("conservation violated: gen=%d del=%d inflight=%d lost=%d",
			res.GeneratedTotal, res.DeliveredTotal, res.InFlightAtEnd, res.Lost)
	}
}

func TestFaultPlanValidate(t *testing.T) {
	g := torusGraph(t)
	cases := []FaultEvent{
		{Cycle: -1, Edge: 0, Switch: -1},
		{Cycle: 0, Edge: 0, Switch: 0},
		{Cycle: 0, Edge: -1, Switch: -1},
		{Cycle: 0, Edge: g.M(), Switch: -1},
		{Cycle: 0, Edge: -1, Switch: g.N()},
	}
	for i, ev := range cases {
		if err := NewFaultPlan(ev).Validate(g); err == nil {
			t.Fatalf("case %d: invalid event %+v accepted", i, ev)
		}
	}
	plan := NewFaultPlan(LinkUp(500, 3), LinkDown(100, 3), SwitchDown(200, 1), SwitchUp(900, 1))
	if err := plan.Validate(g); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(plan.Events); i++ {
		if plan.Events[i].Cycle < plan.Events[i-1].Cycle {
			t.Fatal("events not sorted by cycle")
		}
	}
	if plan.FailureCount() != 2 {
		t.Fatalf("FailureCount = %d, want 2", plan.FailureCount())
	}
}

func TestRandomLinkFaults(t *testing.T) {
	g := torusGraph(t)
	if _, err := RandomLinkFaults(g, 1.0, 0, 0, 1); err == nil {
		t.Fatal("frac 1.0 accepted")
	}
	if _, err := RandomLinkFaults(g, -0.1, 0, 0, 1); err == nil {
		t.Fatal("negative frac accepted")
	}
	p, err := RandomLinkFaults(g, 0.05, 1000, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := int(float64(g.M()) * 0.05)
	if len(p.Events) != want {
		t.Fatalf("%d events, want %d", len(p.Events), want)
	}
	seen := map[int]bool{}
	for _, ev := range p.Events {
		if ev.Cycle < 1000 || ev.Cycle > 3000 {
			t.Fatalf("event at cycle %d outside [1000,3000]", ev.Cycle)
		}
		if seen[ev.Edge] {
			t.Fatalf("edge %d failed twice", ev.Edge)
		}
		seen[ev.Edge] = true
	}
	// Same seed, same plan; different seed, different edges.
	p2, _ := RandomLinkFaults(g, 0.05, 1000, 2000, 7)
	if !reflect.DeepEqual(p, p2) {
		t.Fatal("same seed produced different plans")
	}
	p3, _ := RandomLinkFaults(g, 0.05, 1000, 2000, 8)
	if reflect.DeepEqual(p, p3) {
		t.Fatal("different seeds produced identical plans")
	}
}

// A plan with no events must leave the run bit-identical to a plain one:
// the fault machinery may not perturb RNG draws, credits, or timing.
func TestZeroFaultPlanBitIdentical(t *testing.T) {
	cfg := shortCfg()
	g := torusGraph(t)
	plain := runFaultSim(t, cfg, g, 0.2, nil)
	planned := runFaultSim(t, cfg, g, 0.2, NewFaultPlan())
	if !reflect.DeepEqual(plain, planned) {
		t.Fatalf("zero-fault plan changed the result:\nplain   %+v\nplanned %+v", plain, planned)
	}
}

// Killing the only link between two switches mid-run must produce flit
// drops, transport timeouts, retries and (once the budget is exhausted)
// permanent losses — and the run must drain cleanly instead of tripping
// the watchdog, even though cross traffic is unroutable forever.
func TestLinkDeathDropsAndDrains(t *testing.T) {
	g := twoSwitchGraph()
	cfg := shortCfg()
	// Fast transport so the retry budget runs out well inside the run
	// (injection continues through the drain, so packets generated near
	// the end are legitimately still pending).
	cfg.FaultTimeoutCycles = 256
	cfg.RetryBackoffCycles = 16
	cfg.RetryBudget = 2
	plan := NewFaultPlan(LinkDown(4000, 0))
	res := runFaultSim(t, cfg, g, 0.2, plan)
	checkFaultConservation(t, res)
	if res.DeliveredTotal == 0 {
		t.Fatal("nothing delivered before the fault")
	}
	if res.Dropped == 0 {
		t.Fatal("no drops despite killing the only inter-switch link under load")
	}
	if res.TimedOut == 0 {
		t.Fatal("no transport timeouts despite an unreachable destination")
	}
	if res.Retried == 0 {
		t.Fatal("no retries despite drops and a nonzero budget")
	}
	if res.Lost == 0 {
		t.Fatal("no permanent losses despite a permanently cut destination")
	}
	if res.InFlightAtEnd > res.GeneratedTotal/10 {
		t.Fatalf("%d of %d packets wedged at end; timeout/retry failed to drain",
			res.InFlightAtEnd, res.GeneratedTotal)
	}
}

// A failed link that is later repaired: traffic flows again afterwards
// and post-fault deliveries are recorded with their own percentiles.
func TestLinkRepairRestoresTraffic(t *testing.T) {
	g := twoSwitchGraph()
	cfg := shortCfg()
	cfg.DrainCycles = 20000
	plan := NewFaultPlan(LinkDown(4000, 0), LinkUp(5000, 0))
	res := runFaultSim(t, cfg, g, 0.2, plan)
	checkFaultConservation(t, res)
	if res.DeliveredPostFault == 0 {
		t.Fatal("nothing generated after the fault was delivered despite the repair")
	}
	if res.PostFaultP99NS <= 0 || res.PostFaultP50NS <= 0 {
		t.Fatalf("post-fault percentiles not recorded: p50=%g p99=%g", res.PostFaultP50NS, res.PostFaultP99NS)
	}
	if res.PostFaultP99NS < res.PostFaultP50NS {
		t.Fatalf("post-fault p99 %g below p50 %g", res.PostFaultP99NS, res.PostFaultP50NS)
	}
}

// 5% random link failures on the 8x8 torus with the fault-aware adaptive
// router: the run completes, reroutes happen, and delivered throughput
// stays within 25% of the fault-free run (the graceful-degradation
// headline).
func TestTorusGracefulDegradation(t *testing.T) {
	g := torusGraph(t)
	cfg := shortCfg()
	clean := runFaultSim(t, cfg, g, 0.1, nil)
	plan, err := RandomLinkFaults(g, 0.05, cfg.WarmupCycles, cfg.MeasureCycles/2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.FailureCount() == 0 {
		t.Fatal("empty fault plan")
	}
	res := runFaultSim(t, cfg, g, 0.1, plan)
	checkFaultConservation(t, res)
	if res.Rerouted == 0 {
		t.Fatal("no packets rerouted despite dead links on a fault-aware router")
	}
	if res.DeliveredPostFault == 0 {
		t.Fatal("no post-fault deliveries recorded")
	}
	if res.AcceptedGbps < 0.75*clean.AcceptedGbps {
		t.Fatalf("throughput degraded more than 25%%: %.2f vs %.2f Gbps/host",
			res.AcceptedGbps, clean.AcceptedGbps)
	}
}

// Killing a switch drops everything buffered there and everything
// addressed to it; the rest of the fabric keeps delivering.
func TestSwitchDeathIsolatesSwitch(t *testing.T) {
	g := torusGraph(t)
	cfg := shortCfg()
	cfg.FaultTimeoutCycles = 256
	cfg.RetryBackoffCycles = 16
	cfg.RetryBudget = 2
	plan := NewFaultPlan(SwitchDown(cfg.WarmupCycles, 27))
	res := runFaultSim(t, cfg, g, 0.1, plan)
	checkFaultConservation(t, res)
	if res.Lost == 0 {
		t.Fatal("no losses despite a dead switch absorbing addressed traffic")
	}
	if res.DeliveredPostFault == 0 {
		t.Fatal("fabric stopped delivering after one switch died")
	}
	if res.InFlightAtEnd > res.GeneratedTotal/10 {
		t.Fatalf("%d of %d packets wedged at end", res.InFlightAtEnd, res.GeneratedTotal)
	}
}

// DSN custom source routing under shortcut failures: packets whose
// route dies re-source onto ring-only detours (Rerouted) and
// still arrive.
func TestDSNSourceRoutedDetours(t *testing.T) {
	d, err := core.NewV(60)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	rt, err := NewDSNSourceRouted(d)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortCfg()
	cfg.DrainCycles = 30000
	var events []FaultEvent
	for _, e := range g.EdgesByKind(graph.KindShortcut) {
		events = append(events, LinkDown(cfg.WarmupCycles, e))
	}
	if len(events) == 0 {
		t.Fatal("DSN-V has no shortcut edges?")
	}
	pat := traffic.Uniform{Hosts: d.N * cfg.HostsPerSwitch}
	s, err := NewSim(cfg, g, rt, pat, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaultPlan(NewFaultPlan(events...)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkFaultConservation(t, res)
	if res.Rerouted == 0 {
		t.Fatal("no ring detours despite every shortcut dying")
	}
	if res.DeliveredPostFault == 0 {
		t.Fatal("nothing delivered after the shortcuts died")
	}
}

// SetFaultPlan input validation.
func TestSetFaultPlanRejectsBadInput(t *testing.T) {
	g := twoSwitchGraph()
	cfg := shortCfg()
	rt, err := NewDuatoUpDown(g, cfg.VCs)
	if err != nil {
		t.Fatal(err)
	}
	pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
	s, err := NewSim(cfg, g, rt, pat, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaultPlan(nil); err == nil {
		t.Fatal("nil plan accepted")
	}
	if err := s.SetFaultPlan(NewFaultPlan(LinkDown(0, 99))); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if err := s.SetFaultPlan(NewFaultPlan(LinkDown(100, 0))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaultPlan(NewFaultPlan()); err == nil {
		t.Fatal("SetFaultPlan accepted after Run")
	}
}

// The wormhole engine's masking-only fault support: dead links are
// avoided by new headers, the fault-aware router reroutes around them,
// and conservation holds (no drops in this engine).
func TestWormholeFaultMasking(t *testing.T) {
	g := torusGraph(t)
	cfg := shortCfg()
	cfg.BufFlitsPerVC = 20
	rt, err := NewDuatoUpDown(g, cfg.VCs)
	if err != nil {
		t.Fatal(err)
	}
	pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
	s, err := NewWormSim(cfg, g, rt, pat, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := RandomLinkFaults(g, 0.05, cfg.WarmupCycles, cfg.MeasureCycles/2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.GeneratedTotal != res.DeliveredTotal+res.InFlightAtEnd {
		t.Fatalf("wormhole conservation violated: gen=%d del=%d inflight=%d",
			res.GeneratedTotal, res.DeliveredTotal, res.InFlightAtEnd)
	}
	if res.DeliveredMeasured == 0 {
		t.Fatal("nothing delivered under masked faults")
	}
	if res.Rerouted == 0 {
		t.Fatal("no reroutes despite dead links on a fault-aware router")
	}
}
