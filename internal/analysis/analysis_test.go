package analysis

import (
	"reflect"
	"strings"
	"testing"

	"dsnet/internal/graph"
	"dsnet/internal/layout"
	"dsnet/internal/netsim"
	"dsnet/internal/traffic"
)

func TestBuildComparison(t *testing.T) {
	graphs, err := BuildComparison(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names {
		g, ok := graphs[name]
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if g.N() != 64 {
			t.Fatalf("%s has %d switches", name, g.N())
		}
		if !g.Connected() {
			t.Fatalf("%s disconnected", name)
		}
	}
	if _, err := BuildComparison(7, 1); err == nil {
		t.Fatal("n=7 accepted")
	}
}

// Figures 7 and 8 shape: RANDOM lowest, torus highest, DSN between and
// close to RANDOM, with the torus gap growing with size.
func TestPathSweepShape(t *testing.T) {
	rows, err := PathSweep([]int{6, 8, 10}, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.ASPL["RANDOM"] > r.ASPL["DSN"] {
			t.Errorf("n=%d: RANDOM ASPL %.2f above DSN %.2f", r.N, r.ASPL["RANDOM"], r.ASPL["DSN"])
		}
		if r.N >= 256 {
			if r.ASPL["DSN"] >= r.ASPL["Torus"] {
				t.Errorf("n=%d: DSN ASPL %.2f not below torus %.2f", r.N, r.ASPL["DSN"], r.ASPL["Torus"])
			}
			if r.Diameter["DSN"] >= r.Diameter["Torus"] {
				t.Errorf("n=%d: DSN diameter %.1f not below torus %.1f", r.N, r.Diameter["DSN"], r.Diameter["Torus"])
			}
		}
	}
	// Scalability: the torus/DSN ASPL ratio grows with size.
	r0 := rows[0].ASPL["Torus"] / rows[0].ASPL["DSN"]
	r2 := rows[2].ASPL["Torus"] / rows[2].ASPL["DSN"]
	if r2 <= r0 {
		t.Errorf("torus/DSN ASPL ratio should grow: %.2f -> %.2f", r0, r2)
	}
}

// Section VII.B reports ASPL 3.2 / 3.2 / 4.1 for DSN / RANDOM / torus at
// 64 switches. Allow a modest tolerance for the RANDOM seeds.
func TestASPL64Switches(t *testing.T) {
	rows, err := PathSweep([]int{6}, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	check := func(name string, want, tol float64) {
		if got := r.ASPL[name]; got < want-tol || got > want+tol {
			t.Errorf("%s ASPL %.2f, paper reports %.1f", name, got, want)
		}
	}
	check("DSN", 3.2, 0.35)
	check("RANDOM", 3.2, 0.35)
	check("Torus", 4.1, 0.15)
}

func TestCableSweepShape(t *testing.T) {
	rows, err := CableSweep([]int{8, 10, 11}, []uint64{1}, layout.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Average["RANDOM"] <= r.Average["DSN"] {
			t.Errorf("n=%d: RANDOM cable %.2f not above DSN %.2f", r.N, r.Average["RANDOM"], r.Average["DSN"])
		}
	}
	// RANDOM's cable cost grows much faster than DSN's.
	growRandom := rows[2].Average["RANDOM"] / rows[0].Average["RANDOM"]
	growDSN := rows[2].Average["DSN"] / rows[0].Average["DSN"]
	if growRandom <= growDSN {
		t.Errorf("RANDOM growth %.2f should exceed DSN growth %.2f", growRandom, growDSN)
	}
}

// Section I headline: up to 38% shorter average cable than RANDOM, and
// diameter / ASPL improved vs torus by up to 67% / 55%.
func TestHeadlineClaims(t *testing.T) {
	rows, err := PathSweep([]int{11}, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	diamImp := 1 - r.Diameter["DSN"]/r.Diameter["Torus"]
	asplImp := 1 - r.ASPL["DSN"]/r.ASPL["Torus"]
	if diamImp < 0.45 {
		t.Errorf("diameter improvement vs torus %.0f%%, paper: up to 67%%", diamImp*100)
	}
	if asplImp < 0.40 {
		t.Errorf("ASPL improvement vs torus %.0f%%, paper: up to 55%%", asplImp*100)
	}
	crows, err := CableSweep([]int{11}, []uint64{1}, layout.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cableRed := 1 - crows[0].Average["DSN"]/crows[0].Average["RANDOM"]
	if cableRed < 0.20 {
		t.Errorf("cable reduction vs RANDOM %.0f%%, paper: up to 38%%", cableRed*100)
	}
}

func TestWritePathTable(t *testing.T) {
	rows, err := PathSweep([]int{6}, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WritePathTable(&sb, rows, "diameter"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "DSN") || !strings.Contains(sb.String(), "64") {
		t.Fatalf("table:\n%s", sb.String())
	}
	if err := WritePathTable(&sb, rows, "nope"); err == nil {
		t.Fatal("bad metric accepted")
	}
	var cb strings.Builder
	crows, err := CableSweep([]int{6}, []uint64{1}, layout.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	WriteCableTable(&cb, crows)
	if !strings.Contains(cb.String(), "RANDOM") {
		t.Fatalf("cable table:\n%s", cb.String())
	}
}

func TestPatternFor(t *testing.T) {
	for _, name := range []string{"uniform", "bit-reversal", "neighboring"} {
		p, err := PatternFor(name, 64, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("pattern %q renamed %q", name, p.Name())
		}
	}
	if _, err := PatternFor("bogus", 64, 4); err == nil {
		t.Fatal("bogus pattern accepted")
	}
}

func simCfg() netsim.Config {
	c := netsim.Default()
	c.WarmupCycles = 1500
	c.MeasureCycles = 3000
	c.DrainCycles = 5000
	return c
}

func TestLatencySweepAndTable(t *testing.T) {
	graphs, err := BuildComparison(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := LatencySweep(simCfg(), graphs["DSN"], "DSN", "uniform", []float64{0.02, 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 2 {
		t.Fatalf("%d points", len(curve.Points))
	}
	if curve.Points[0].AvgLatencyNS <= 0 {
		t.Fatal("no latency measured")
	}
	if curve.Points[1].AcceptedGbps <= curve.Points[0].AcceptedGbps {
		t.Fatal("accepted traffic did not grow below saturation")
	}
	var sb strings.Builder
	WriteLatencyTable(&sb, []LatencyCurve{curve})
	if !strings.Contains(sb.String(), "DSN / uniform") {
		t.Fatalf("latency table:\n%s", sb.String())
	}
}

func TestFaultSweep(t *testing.T) {
	rows, err := FaultSweep(64, []float64{0, 0.05}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.FailFraction == 0 {
			if r.ConnectedRate != 1 || r.DiameterInfl != 1 || r.ASPLInfl != 1 {
				t.Fatalf("zero-failure row degraded: %+v", r)
			}
			continue
		}
		if r.ConnectedRate < 0 || r.ConnectedRate > 1 {
			t.Fatalf("connected rate %v", r.ConnectedRate)
		}
		if r.ConnectedRate > 0 && r.ASPLInfl < 1 {
			t.Fatalf("ASPL shrank under failures: %+v", r)
		}
	}
	var sb strings.Builder
	WriteFaultTable(&sb, rows)
	if !strings.Contains(sb.String(), "fail_frac") {
		t.Fatal("fault table header missing")
	}
	if _, err := FaultSweep(64, []float64{0.5}, 0, 1); err == nil {
		t.Fatal("0 trials accepted")
	}
	if _, err := FaultSweep(64, []float64{1.0}, 1, 1); err == nil {
		t.Fatal("fraction 1.0 accepted")
	}
}

func TestBottleneckSweep(t *testing.T) {
	rows, err := BottleneckSweep(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]BottleneckRow{}
	for _, r := range rows {
		if r.Mean <= 0 || r.Max < r.Mean || r.MaxMean < 1 {
			t.Fatalf("implausible row %+v", r)
		}
		byName[r.Name] = r
	}
	// The torus is edge-transitive in each dimension: its load spread is
	// the tightest of the three. DSN concentrates load on its level-1
	// shortcuts, so its worst channel is the most overloaded.
	if byName["Torus"].MaxMean >= byName["DSN"].MaxMean {
		t.Errorf("torus max/mean %.2f not below DSN %.2f", byName["Torus"].MaxMean, byName["DSN"].MaxMean)
	}
	var sb strings.Builder
	WriteBottleneckTable(&sb, rows)
	if !strings.Contains(sb.String(), "max/mean") {
		t.Fatal("table header missing")
	}
}

// The paper's sketched custom-routing result: DSN custom routing spreads
// traffic more evenly than deterministic up*/down* (which funnels
// everything through the tree root).
func TestBalanceComparison(t *testing.T) {
	res, err := BalanceComparison(simCfg(), 64, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d schemes", len(res))
	}
	var custom, updown BalanceResult
	for _, r := range res {
		switch r.Scheme {
		case "custom-dsn":
			custom = r
		case "updown":
			updown = r
		}
	}
	if custom.CoV >= updown.CoV {
		t.Errorf("custom routing CoV %.3f not below up*/down* %.3f", custom.CoV, updown.CoV)
	}
	if custom.Gini >= updown.Gini {
		t.Errorf("custom routing Gini %.3f not below up*/down* %.3f", custom.Gini, updown.Gini)
	}
}

func TestRelatedWork(t *testing.T) {
	rows, err := RelatedWork(false)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]RelatedRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// De Bruijn B(2,m) and Kautz K(2,m) have diameter m, degree <= 4.
	if r := byName["DeBruijn(2,9)"]; r.N != 512 || r.Degree > 4 || r.Diameter > 9 {
		t.Fatalf("DeBruijn row %+v", r)
	}
	if r := byName["Kautz(2,8)"]; r.N != 384 || r.Degree != 4 || r.Diameter != 8 {
		t.Fatalf("Kautz row %+v", r)
	}
	// CCC is 3-regular.
	if r := byName["CCC(6)"]; r.Degree != 3 || r.N != 384 {
		t.Fatalf("CCC row %+v", r)
	}
	// Hypercube(9): degree 9, diameter 9.
	if r := byName["Hypercube(9)"]; r.Degree != 9 || r.Diameter != 9 {
		t.Fatalf("Hypercube row %+v", r)
	}
	// DSN-512 should beat CCC's diameter at comparable degree budget.
	if byName["DSN-512"].Diameter >= byName["CCC(6)"].Diameter {
		t.Fatalf("DSN-512 diameter %d not below CCC(6) %d",
			byName["DSN-512"].Diameter, byName["CCC(6)"].Diameter)
	}
	var sb strings.Builder
	WriteRelatedTable(&sb, rows)
	if !strings.Contains(sb.String(), "Kautz") {
		t.Fatal("table missing Kautz")
	}
}

func TestSwitchingComparison(t *testing.T) {
	graphs, err := BuildComparison(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := SwitchingComparison(simCfg(), graphs["DSN"], "uniform", []float64{0.02, 0.08}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.VCT.DeliveredMeasured == 0 || p.Wormhole.DeliveredMeasured == 0 {
			t.Fatalf("nothing delivered at rate %v", p.Rate)
		}
	}
	// Zero-ish load: the two switching modes agree closely.
	low := pts[0]
	diff := low.Wormhole.AvgLatencyNS - low.VCT.AvgLatencyNS
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.10*low.VCT.AvgLatencyNS {
		t.Fatalf("low-load VCT %.0f ns vs wormhole %.0f ns differ too much",
			low.VCT.AvgLatencyNS, low.Wormhole.AvgLatencyNS)
	}
	var sb strings.Builder
	WriteSwitchingTable(&sb, pts)
	if !strings.Contains(sb.String(), "worm_acc") {
		t.Fatal("switching table header missing")
	}
	if _, err := SwitchingComparison(simCfg(), graphs["DSN"], "uniform", nil, 0); err == nil {
		t.Fatal("0 wormhole buffer accepted")
	}
}

// Every SwitchingComparison point equals a fresh direct run on each
// engine, also for the stateful all-to-all pattern: no router or pattern
// state leaks from one run into the next.
func TestSwitchingComparisonMatchesDirectRuns(t *testing.T) {
	graphs, err := BuildComparison(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := graphs["DSN"]
	cfg := simCfg()
	pts, err := SwitchingComparison(cfg, g, "all-to-all", []float64{0.02, 0.04}, 20)
	if err != nil {
		t.Fatal(err)
	}
	direct := func(newSim func(netsim.Config, *graph.Graph, netsim.Router, traffic.Pattern, float64) (*netsim.Sim, error),
		buf int, rate float64) netsim.Result {
		c := cfg
		c.BufFlitsPerVC = buf
		rt, err := netsim.NewDuatoUpDown(g, c.VCs)
		if err != nil {
			t.Fatal(err)
		}
		pat, err := PatternFor("all-to-all", g.N(), c.HostsPerSwitch)
		if err != nil {
			t.Fatal(err)
		}
		s, err := newSim(c, g, rt, pat, rate)
		if err != nil {
			t.Fatal(err)
		}
		res, _ := s.Run()
		return res
	}
	for _, p := range pts {
		if vct := direct(netsim.NewSim, cfg.PacketFlits, p.Rate); !reflect.DeepEqual(p.VCT, vct) {
			t.Errorf("rate %g: VCT point %v, direct run %v", p.Rate, p.VCT, vct)
		}
		if worm := direct(netsim.NewWormSim, 20, p.Rate); !reflect.DeepEqual(p.Wormhole, worm) {
			t.Errorf("rate %g: wormhole point %v, direct run %v", p.Rate, p.Wormhole, worm)
		}
	}
}

// The analytic end-to-end latency model: at scale, DSN must beat both the
// torus (fewer 100 ns switch hops) and RANDOM (shorter cables), because
// switch delay dominates cable propagation at these scales.
func TestPhysicalLatencySweep(t *testing.T) {
	rows, err := PhysicalLatencySweep([]int{6, 10}, []uint64{1}, layout.DefaultConfig(), DefaultPhysicalConst())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		for _, name := range Names {
			if r.MeanNS[name] <= 0 || r.WorstNS[name] < r.MeanNS[name] {
				t.Fatalf("implausible %s row: %+v", name, r)
			}
		}
	}
	big := rows[1]
	if big.MeanNS["DSN"] >= big.MeanNS["Torus"] {
		t.Errorf("DSN modeled latency %.0f ns not below torus %.0f at 1024 switches",
			big.MeanNS["DSN"], big.MeanNS["Torus"])
	}
	// RANDOM pays cable length: DSN should be within a whisker or better.
	if big.MeanNS["DSN"] > 1.25*big.MeanNS["RANDOM"] {
		t.Errorf("DSN modeled latency %.0f ns far above RANDOM %.0f",
			big.MeanNS["DSN"], big.MeanNS["RANDOM"])
	}
	var sb strings.Builder
	WritePhysicalTable(&sb, rows)
	if !strings.Contains(sb.String(), "mean ns") {
		t.Fatal("physical table header missing")
	}
}

// Section VII.B: "All the topologies have similar throughput." Verify the
// saturation throughputs of the three topologies are within a factor of
// each other under uniform traffic.
func TestThroughputComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("bisection probes in -short mode")
	}
	cfg := simCfg()
	rows, err := ThroughputComparison(cfg, "uniform", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	lo, hi := rows[0].SaturationGB, rows[0].SaturationGB
	for _, r := range rows {
		if r.SaturationGB <= 0 {
			t.Fatalf("%s throughput %.2f", r.Topology, r.SaturationGB)
		}
		if r.SaturationGB < lo {
			lo = r.SaturationGB
		}
		if r.SaturationGB > hi {
			hi = r.SaturationGB
		}
	}
	if hi > 1.8*lo {
		t.Errorf("throughputs differ too much: %.2f .. %.2f Gbps/host", lo, hi)
	}
	var sb strings.Builder
	WriteThroughputTable(&sb, rows)
	if !strings.Contains(sb.String(), "thruput_gbps") {
		t.Fatal("table header missing")
	}
}

func TestSaturationThroughputValidation(t *testing.T) {
	graphs, err := BuildComparison(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := netsim.NewDuatoUpDown(graphs["DSN"], 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SaturationThroughput(simCfg(), graphs["DSN"], rt, "uniform", 0.5, 0.1, 0.01); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := SaturationThroughput(simCfg(), graphs["DSN"], rt, "bogus", 0.01, 0.1, 0.01); err == nil {
		t.Fatal("bogus pattern accepted")
	}
}

func TestFig10CurvesSmoke(t *testing.T) {
	cfg := simCfg()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 800, 1600, 2400
	curves, err := Fig10Curves(cfg, "uniform", []float64{0.02}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 3 {
		t.Fatalf("%d curves", len(curves))
	}
	for _, c := range curves {
		if len(c.Points) != 1 || c.Points[0].DeliveredMeasured == 0 {
			t.Fatalf("curve %s: %+v", c.Topology, c.Points)
		}
	}
	if _, err := Fig10Curves(cfg, "bogus", []float64{0.02}, 1); err == nil {
		t.Fatal("bogus pattern accepted")
	}
}

// The ladder ablation: more shortcut levels monotonically (weakly) shrink
// the diameter and the custom routes, at slightly more cable.
func TestLadderSweep(t *testing.T) {
	rows, err := LadderSweep(256, layout.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := 8 // ceil(log2 256)
	if len(rows) != p-1 {
		t.Fatalf("%d rows, want %d", len(rows), p-1)
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.Diameter > first.Diameter {
		t.Errorf("full ladder diameter %d above x=1 diameter %d", last.Diameter, first.Diameter)
	}
	if last.RouteAvg >= first.RouteAvg {
		t.Errorf("full ladder route avg %.2f not below x=1 %.2f", last.RouteAvg, first.RouteAvg)
	}
	if last.ShortcutSpan <= first.ShortcutSpan {
		t.Errorf("full ladder span %d not above x=1 %d", last.ShortcutSpan, first.ShortcutSpan)
	}
	if !last.BoundsApply || first.BoundsApply {
		t.Errorf("theorem precondition flags wrong: first %v last %v", first.BoundsApply, last.BoundsApply)
	}
	var sb strings.Builder
	WriteLadderTable(&sb, 256, rows)
	if !strings.Contains(sb.String(), "route_max") {
		t.Fatal("ladder table header missing")
	}
}
