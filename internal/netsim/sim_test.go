package netsim

import (
	"errors"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/topology"
	"dsnet/internal/traffic"
)

// engines lists both switching engines, for tests that run each case on
// either.
var engines = []struct {
	name string
	new  func(Config, *graph.Graph, Router, traffic.Pattern, float64) (*Sim, error)
}{{"vct", NewSim}, {"wormhole", NewWormSim}}

func shortCfg() Config {
	c := Default()
	c.WarmupCycles = 3000
	c.MeasureCycles = 6000
	c.DrainCycles = 8000
	return c
}

func torusGraph(t *testing.T) *graph.Graph {
	t.Helper()
	tor, err := topology.Torus2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return tor.Graph()
}

func dsnGraph(t *testing.T) *core.DSN {
	t.Helper()
	d, err := core.New(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func runSim(t *testing.T, cfg Config, g *graph.Graph, rate float64) Result {
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
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	c := Default()
	c.BufFlitsPerVC = 10 // < packet size: VCT violated
	if err := c.Validate(); err == nil {
		t.Fatal("undersized buffers accepted")
	}
	c = Default()
	c.VCs = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero VCs accepted")
	}
	c = Default()
	c.MeasureCycles = 0
	if err := c.Validate(); err == nil {
		t.Fatal("zero measurement accepted")
	}
}

func TestCycleNS(t *testing.T) {
	c := Default()
	want := 256.0 / 96.0
	if math.Abs(c.CycleNS()-want) > 1e-12 {
		t.Fatalf("cycle %g ns, want %g", c.CycleNS(), want)
	}
}

func TestNewSimValidation(t *testing.T) {
	g := torusGraph(t)
	rt, err := NewDuatoUpDown(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	pat := traffic.Uniform{Hosts: 256}
	bad := Default()
	bad.VCs = 0
	for _, e := range engines {
		for _, c := range []struct {
			what string
			cfg  Config
			rt   Router
			pat  traffic.Pattern
			rate float64
		}{
			{"negative rate", Default(), rt, pat, -0.1},
			{"rate > 1", Default(), rt, pat, 1.5},
			{"NaN rate", Default(), rt, pat, math.NaN()},
			{"invalid config", bad, rt, pat, 0.1},
			{"nil router", Default(), nil, pat, 0.1},
			{"nil pattern at a positive rate", Default(), rt, nil, 0.1},
		} {
			if _, err := e.new(c.cfg, g, c.rt, c.pat, c.rate); err == nil {
				t.Errorf("%s: %s accepted", e.name, c.what)
			}
		}
		// A replay needs no pattern: rate 0 with a nil pattern is valid.
		s, err := e.new(Default(), g, rt, nil, 0)
		if err != nil {
			t.Fatalf("%s: nil pattern at rate 0 rejected: %v", e.name, err)
		}
		if err := s.SetReplay(&Replay{Messages: []ReplayMessage{{SrcHost: 0, DstHost: 1, Flits: 1}}}); err != nil {
			t.Fatal(err)
		}
		if res, err := s.Run(); err != nil || !res.ReplayCompleted {
			t.Fatalf("%s: replay without a pattern: %v %v", e.name, res, err)
		}
	}
}

func TestDuatoNeedsTwoVCs(t *testing.T) {
	if _, err := NewDuatoUpDown(torusGraph(t), 1); err == nil {
		t.Fatal("1 VC accepted for adaptive routing")
	}
}

// Zero-load latency must match the analytic pipeline model:
// (hops+1)*(1 + linkDelay + pipeline) + packet + linkDelay cycles for a
// packet crossing hops switch-to-switch links.
func TestZeroLoadLatencyFormula(t *testing.T) {
	cfg := shortCfg()
	cfg.Seed = 7
	g := torusGraph(t)
	res := runSim(t, cfg, g, 0.005) // well below saturation
	if res.Saturated {
		t.Fatal("saturated at near-zero load")
	}
	if res.DeliveredMeasured == 0 {
		t.Fatal("nothing delivered")
	}
	// 8x8 torus ASPL is about 4.06; expected latency in cycles:
	perHop := float64(1 + cfg.LinkDelayCycles + cfg.PipelineCycles)
	wantCycles := (4.06+1)*perHop + float64(cfg.PacketFlits) + float64(cfg.LinkDelayCycles)
	wantNS := wantCycles * cfg.CycleNS()
	if math.Abs(res.AvgLatencyNS-wantNS) > 0.08*wantNS {
		t.Fatalf("zero-load latency %.0f ns, want about %.0f ns", res.AvgLatencyNS, wantNS)
	}
}

// fixedSource makes rand.Rand.Float64 take a chosen draw.
type fixedSource uint64

func (u fixedSource) Uint64() uint64 { return uint64(u) }

// TestArrivesMatchesFloat64 checks genTraffic's integer arrival test
// against the float test it stands for, rand.Float64() < p on the same
// draw: one below the threshold, at it, one above it and at random
// draws, for edge probabilities, Fig. 10's per-cycle packet
// probabilities and random ones. The 11 high bits Float64 discards are
// drawn at random too.
func TestArrivesMatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	probs := []float64{0, 1, 0.01 / 33, 0.15 / 33, 1.0 / 33, math.Nextafter(1, 0), 3.0 / (1 << 53)}
	for i := 0; i < 64; i++ {
		probs = append(probs, rng.Float64())
	}
	for _, p := range probs {
		thresh := arrivalThreshold(p)
		draws := []uint64{thresh - 1, thresh, thresh + 1}
		for i := 0; i < 64; i++ {
			draws = append(draws, rng.Uint64())
		}
		for _, u := range draws {
			for _, high := range []uint64{0, rng.Uint64() &^ (1<<53 - 1)} {
				u := u&(1<<53-1) | high
				if got, want := arrives(u, thresh), rand.New(fixedSource(u)).Float64() < p; got != want {
					t.Errorf("p=%g draw %#x: arrives %v, Float64 test %v", p, u, got, want)
				}
			}
		}
	}
}

func TestConservation(t *testing.T) {
	cfg := shortCfg()
	g := torusGraph(t)
	res := runSim(t, cfg, g, 0.2)
	if res.GeneratedTotal != res.DeliveredTotal+res.InFlightAtEnd {
		t.Fatalf("conservation violated: gen=%d del=%d inflight=%d",
			res.GeneratedTotal, res.DeliveredTotal, res.InFlightAtEnd)
	}
	if res.DeliveredMeasured > res.GeneratedMeasured {
		t.Fatalf("delivered %d > generated %d in window", res.DeliveredMeasured, res.GeneratedMeasured)
	}
}

func TestDeterminism(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("three full runs in -race mode; determinism is race-insensitive")
	}
	cfg := shortCfg()
	g := torusGraph(t)
	a := runSim(t, cfg, g, 0.3)
	b := runSim(t, cfg, g, 0.3)
	if a.AvgLatencyNS != b.AvgLatencyNS || a.DeliveredTotal != b.DeliveredTotal {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	cfg.Seed = 99
	c := runSim(t, cfg, g, 0.3)
	if c.DeliveredTotal == a.DeliveredTotal && c.AvgLatencyNS == a.AvgLatencyNS {
		t.Fatal("different seeds produced identical results")
	}
}

func TestLatencyRisesWithLoad(t *testing.T) {
	cfg := shortCfg()
	g := torusGraph(t)
	low := runSim(t, cfg, g, 0.02)
	// 0.16 flits/cycle/host is busy but below the 8x8 torus saturation
	// point; past saturation the accepted traffic no longer rises.
	high := runSim(t, cfg, g, 0.16)
	if low.Saturated {
		t.Fatal("saturated at 2% load")
	}
	if high.AvgLatencyNS <= low.AvgLatencyNS {
		t.Fatalf("latency did not rise with load: %.0f -> %.0f", low.AvgLatencyNS, high.AvgLatencyNS)
	}
	if high.AcceptedGbps <= low.AcceptedGbps {
		t.Fatalf("accepted traffic did not rise: %.2f -> %.2f", low.AcceptedGbps, high.AcceptedGbps)
	}
}

func TestSaturationDetected(t *testing.T) {
	cfg := shortCfg()
	g := torusGraph(t)
	res := runSim(t, cfg, g, 0.95)
	if !res.Saturated {
		t.Fatalf("95%% injection on a 4-ary torus with 4 hosts/switch must saturate: %v", res)
	}
	// Accepted must stay below offered at saturation.
	if res.AcceptedGbps >= res.OfferedGbps {
		t.Fatalf("accepted %.2f >= offered %.2f at saturation", res.AcceptedGbps, res.OfferedGbps)
	}
}

func TestAcceptedMatchesOfferedBelowSaturation(t *testing.T) {
	cfg := shortCfg()
	g := torusGraph(t)
	res := runSim(t, cfg, g, 0.1)
	if res.Saturated {
		t.Fatal("saturated at 10% load")
	}
	if math.Abs(res.AcceptedGbps-res.OfferedGbps) > 0.15*res.OfferedGbps {
		t.Fatalf("accepted %.2f Gbps far from offered %.2f Gbps below saturation",
			res.AcceptedGbps, res.OfferedGbps)
	}
}

// The headline simulation result (Figure 10a): DSN has lower latency than
// the torus at low load under uniform traffic, because its average
// shortest path (3.2) beats the torus (4.1).
func TestDSNBeatsTorusLatency(t *testing.T) {
	cfg := shortCfg()
	d := dsnGraph(t)
	torus := torusGraph(t)
	dsnRes := runSim(t, cfg, d.Graph(), 0.05)
	torRes := runSim(t, cfg, torus, 0.05)
	if dsnRes.Saturated || torRes.Saturated {
		t.Fatal("saturated at 5% load")
	}
	if dsnRes.AvgLatencyNS >= torRes.AvgLatencyNS {
		t.Fatalf("DSN latency %.0f ns not below torus %.0f ns", dsnRes.AvgLatencyNS, torRes.AvgLatencyNS)
	}
	improvement := 1 - dsnRes.AvgLatencyNS/torRes.AvgLatencyNS
	if improvement < 0.05 || improvement > 0.35 {
		t.Fatalf("improvement %.0f%% outside the plausible band around the paper's 15%%", improvement*100)
	}
}

func TestChannelFlitsAccounted(t *testing.T) {
	cfg := shortCfg()
	g := torusGraph(t)
	res := runSim(t, cfg, g, 0.2)
	var total int64
	for _, f := range res.ChannelFlits {
		if f < 0 {
			t.Fatal("negative channel flits")
		}
		total += f
	}
	if total == 0 {
		t.Fatal("no inter-switch flits recorded")
	}
	// Each delivered packet crosses at least one inter-switch link on
	// average under uniform traffic at 64 switches.
	if total < res.DeliveredMeasured*int64(cfg.PacketFlits)/2 {
		t.Fatalf("channel flits %d implausibly low", total)
	}
}

func TestResultString(t *testing.T) {
	r := Result{OfferedGbps: 1, AcceptedGbps: 0.9, AvgLatencyNS: 500, P99LatencyNS: 900}
	if r.String() == "" {
		t.Fatal("empty summary")
	}
	r.Saturated = true
	if r.String() == "" {
		t.Fatal("empty summary")
	}
}

// Source-routed DSN custom routing drives the simulator without deadlock
// or stalls and delivers everything at moderate load.
func TestDSNSourceRoutedSim(t *testing.T) {
	d, err := core.NewV(60)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewDSNSourceRouted(d)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortCfg()
	// The custom routing's average path (about 2p hops) is much longer
	// than the adaptive shortest paths, so its capacity is lower: drive it
	// well below that point.
	pat := traffic.Uniform{Hosts: d.N * cfg.HostsPerSwitch}
	s, err := NewSim(cfg, d.Graph(), rt, pat, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatalf("custom routing saturated at 1%% load: %v", res)
	}
	if res.DeliveredMeasured == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestDSNSourceRoutedRequiresVariant(t *testing.T) {
	d, err := core.New(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDSNSourceRouted(d); err == nil {
		t.Fatal("basic variant accepted for source-routed simulation")
	}
}

// Property test: random connected degree-4 topologies at modest load must
// deliver traffic without deadlock, and conservation must hold, for both
// switching engines.
func TestQuickRandomTopologies(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g, err := topology.DLNRandom(32, 2, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Connected() {
			continue
		}
		cfg := Default()
		cfg.Seed = seed
		cfg.WarmupCycles = 1000
		cfg.MeasureCycles = 2500
		cfg.DrainCycles = 4000
		rt, err := NewDuatoUpDown(g, cfg.VCs)
		if err != nil {
			t.Fatal(err)
		}
		pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
		sim, err := NewSim(cfg, g, rt, pat, 0.06)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.DeliveredMeasured == 0 {
			t.Fatalf("seed %d: VCT delivered nothing", seed)
		}
		if res.GeneratedTotal != res.DeliveredTotal+res.InFlightAtEnd {
			t.Fatalf("seed %d: VCT conservation violated", seed)
		}
		wcfg := cfg
		wcfg.BufFlitsPerVC = 20
		worm, err := NewWormSim(wcfg, g, rt, pat, 0.06)
		if err != nil {
			t.Fatal(err)
		}
		wres, err := worm.Run()
		if err != nil {
			t.Fatalf("seed %d: wormhole: %v", seed, err)
		}
		if wres.DeliveredMeasured == 0 {
			t.Fatalf("seed %d: wormhole delivered nothing", seed)
		}
		if wres.GeneratedTotal != wres.DeliveredTotal+wres.InFlightAtEnd {
			t.Fatalf("seed %d: wormhole conservation violated", seed)
		}
	}
}

// DSN-E has parallel physical links (Up and Extra duplicate ring links);
// the simulator must treat them as independent channels. This exercises
// findOutChan's parallel-edge handling under adaptive routing.
func TestSimOnDSNEParallelLinks(t *testing.T) {
	d, err := core.NewE(60)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortCfg()
	res := runSim(t, cfg, d.Graph(), 0.08)
	if res.DeliveredMeasured == 0 {
		t.Fatal("nothing delivered on DSN-E")
	}
	if res.Saturated {
		t.Fatalf("DSN-E saturated at 8%% load: %v", res)
	}
	// The extra links add path diversity: DSN-E should be at least as
	// fast as the plain DSN-V wiring at the same load.
	v, err := core.NewV(60)
	if err != nil {
		t.Fatal(err)
	}
	vres := runSim(t, cfg, v.Graph(), 0.08)
	if res.AvgLatencyNS > vres.AvgLatencyNS*1.05 {
		t.Fatalf("DSN-E latency %.0f ns above DSN-V %.0f ns despite extra links",
			res.AvgLatencyNS, vres.AvgLatencyNS)
	}
}

// The measured average hop count must track the topology's ASPL at low
// load (adaptive routing is minimal below saturation).
func TestAvgHopsMatchesASPL(t *testing.T) {
	cfg := shortCfg()
	g := torusGraph(t)
	res := runSim(t, cfg, g, 0.02)
	// 8x8 torus ASPL is about 4.06 between switches; host pairs on the
	// same switch contribute zero-hop packets, scaling by (1 - 4/256).
	want := 4.06 * (1 - 4.0/256)
	if math.Abs(res.AvgHops-want) > 0.15 {
		t.Fatalf("avg hops %.2f, want about %.2f", res.AvgHops, want)
	}
}

// Integration: a 256-switch DSN simulation completes and shows the same
// qualitative behavior as the 64-switch configuration.
func TestLargeScaleDSNSim(t *testing.T) {
	if testing.Short() {
		t.Skip("256-switch simulation in -short mode")
	}
	d, err := core.New(256, core.CeilLog2(256)-1)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := topology.Torus2D(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.WarmupCycles = 2000
	cfg.MeasureCycles = 4000
	cfg.DrainCycles = 6000
	dsnRes := runSim(t, cfg, d.Graph(), 0.04)
	torRes := runSim(t, cfg, tor.Graph(), 0.04)
	if dsnRes.Saturated || torRes.Saturated {
		t.Fatalf("saturated at 4%% load at 256 switches")
	}
	// The path-length advantage grows with scale: at 256 switches the
	// DSN/torus ASPL ratio (5.47 vs 8.03) should yield a bigger latency
	// cut than at 64.
	improvement := 1 - dsnRes.AvgLatencyNS/torRes.AvgLatencyNS
	if improvement < 0.15 {
		t.Fatalf("DSN latency improvement at 256 switches only %.0f%%", improvement*100)
	}
	if dsnRes.AvgHops >= torRes.AvgHops {
		t.Fatalf("DSN hops %.2f not below torus %.2f", dsnRes.AvgHops, torRes.AvgHops)
	}
}

// The empirical counterpart of the CDG analysis: the basic DSN's custom
// routing (phases sharing ring channels) genuinely deadlocks under load,
// while the same traffic on the Section V.A channel classes keeps
// flowing. This is the paper's motivation for DSN-E/DSN-V, observed live.
func TestBasicCustomRoutingDeadlocks(t *testing.T) {
	if testing.Short() || raceDetectorEnabled {
		t.Skip("deadlock formation run in -short or -race mode")
	}
	basic, err := core.New(36, core.CeilLog2(36)-1)
	if err != nil {
		t.Fatal(err)
	}
	unsafeRt, err := NewDSNSourceRoutedUnsafe(basic)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.WarmupCycles = 5000
	cfg.MeasureCycles = 10000
	cfg.DrainCycles = 400000
	cfg.WatchdogCycles = 60000 // tighter than the default: fail fast
	pat := traffic.Uniform{Hosts: 36 * cfg.HostsPerSwitch}
	sim, err := NewSim(cfg, basic.Graph(), unsafeRt, pat, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := sim.Run()
	if runErr == nil {
		t.Fatal("basic-variant custom routing survived heavy load; expected a deadlock watchdog trip")
	}
	if !errors.Is(runErr, ErrNoProgress) {
		t.Fatalf("deadlock error is not ErrNoProgress: %v", runErr)
	}
	var np *NoProgressError
	if !errors.As(runErr, &np) {
		t.Fatalf("deadlock error is not a *NoProgressError: %v", runErr)
	}
	if np.WatchdogCycles != cfg.WatchdogCycles {
		t.Fatalf("NoProgressError reports deadline %d, configured %d", np.WatchdogCycles, cfg.WatchdogCycles)
	}
	if np.InFlight <= 0 {
		t.Fatalf("deadlocked run reports %d packets in flight", np.InFlight)
	}
	if mon, ok := ViolatedMonitor(runErr); !ok || mon != MonitorWatchdog {
		t.Fatalf("ViolatedMonitor(%v) = %q, %v; want %q", runErr, mon, ok, MonitorWatchdog)
	}

	// Same wiring, same load, Section V.A channels: saturated but alive.
	safe, err := core.NewV(36)
	if err != nil {
		t.Fatal(err)
	}
	safeRt, err := NewDSNSourceRouted(safe)
	if err != nil {
		t.Fatal(err)
	}
	sim2, err := NewSim(cfg, safe.Graph(), safeRt, pat, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim2.Run()
	if err != nil {
		t.Fatalf("deadlock-free channel classes still deadlocked: %v", err)
	}
	if res.DeliveredTotal == 0 {
		t.Fatal("nothing delivered")
	}
}

// The escape-patience policy keeps escape usage negligible below
// saturation and lets it grow under pressure.
func TestEscapeFraction(t *testing.T) {
	cfg := shortCfg()
	g := torusGraph(t)
	low := runSim(t, cfg, g, 0.03)
	if low.EscapeFraction > 0.02 {
		t.Fatalf("escape fraction %.3f at 3%% load", low.EscapeFraction)
	}
	high := runSim(t, cfg, g, 0.25)
	if high.EscapeFraction <= low.EscapeFraction {
		t.Fatalf("escape fraction did not grow: %.4f -> %.4f", low.EscapeFraction, high.EscapeFraction)
	}
}

// DSN-E custom routing must ride its dedicated physical Up and Extra
// links: with edge pinning, flits appear on those channels.
func TestDSNECustomRoutingUsesDedicatedLinks(t *testing.T) {
	d, err := core.NewE(60)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewDSNSourceRouted(d)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortCfg()
	pat := traffic.Uniform{Hosts: d.N * cfg.HostsPerSwitch}
	sim, err := NewSim(cfg, d.Graph(), rt, pat, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated || res.DeliveredMeasured == 0 {
		t.Fatalf("DSN-E custom routing: %v", res)
	}
	g := d.Graph()
	var upFlits, extraFlits int64
	for ei, e := range g.Edges() {
		flits := res.ChannelFlits[2*ei] + res.ChannelFlits[2*ei+1]
		switch e.Kind {
		case graph.KindUp:
			upFlits += flits
		case graph.KindExtra:
			extraFlits += flits
		}
	}
	if upFlits == 0 {
		t.Fatal("no flits on dedicated Up links")
	}
	if extraFlits == 0 {
		t.Fatal("no flits on dedicated Extra links")
	}
}

// The packet trace records a coherent lifecycle: GEN, INJECT, zero or
// more GRANTs, EJECT, DELIVER, in that order, without changing results.
func TestPacketTrace(t *testing.T) {
	g := torusGraph(t)
	cfg := shortCfg()
	cfg.TracePackets = 5
	var buf strings.Builder
	cfg.Trace = &buf
	traced := runSim(t, cfg, g, 0.02)

	plain := shortCfg()
	untraced := runSim(t, plain, g, 0.02)
	if traced.AvgLatencyNS != untraced.AvgLatencyNS {
		t.Fatalf("tracing changed the simulation: %v vs %v", traced.AvgLatencyNS, untraced.AvgLatencyNS)
	}

	out := buf.String()
	for _, ev := range []string{"GEN", "INJECT", "EJECT", "DELIVER"} {
		if !strings.Contains(out, ev) {
			t.Fatalf("trace missing %s events:\n%s", ev, out)
		}
	}
	// Per-packet ordering for packet 0.
	order := []string{}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "pkt=0 ") {
			fields := strings.Fields(line)
			order = append(order, fields[2])
		}
	}
	if len(order) < 4 || order[0] != "GEN" || order[len(order)-1] != "DELIVER" {
		t.Fatalf("packet 0 lifecycle %v", order)
	}
	if strings.Contains(out, "pkt=7 ") {
		t.Fatal("trace exceeded its packet budget")
	}
}

// TestSecondRunRejected checks that a Sim runs once on both engines: a
// second Run would start a fresh timing wheel, dropping every event in
// flight while every counter carried over, so it must fail instead of
// returning a corrupted Result.
func TestSecondRunRejected(t *testing.T) {
	d, err := core.New(16, core.CeilLog2(16)-1)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	cfg := Default()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 500, 1000, 1000
	rt, err := NewDuatoUpDown(g, cfg.VCs)
	if err != nil {
		t.Fatal(err)
	}
	pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
	for _, e := range engines {
		s, err := e.new(cfg, g, rt, pat, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatalf("%s: first run: %v", e.name, err)
		}
		if res, err := s.Run(); err == nil {
			t.Errorf("%s: second Run returned no error (generated %d, delivered %d, in flight %d)",
				e.name, res.GeneratedTotal, res.DeliveredTotal, res.InFlightAtEnd)
		}
	}
}

// TestTraceOffAllocs bounds the allocations of a short DSN-64 run on
// each engine with tracing off. Trace arguments are built only for
// traced packets, so no lifecycle event boxes a value (the DELIVER
// latency, say) once per packet.
func TestTraceOffAllocs(t *testing.T) {
	g := dsnGraph(t).Graph()
	cfg := Default()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 500, 1000, 1000
	rt, err := NewDuatoUpDown(g, cfg.VCs)
	if err != nil {
		t.Fatal(err)
	}
	pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
	// About 3% above the measured 5,804 (VCT) and 4,410 (wormhole)
	// allocations per run. Boxing the trace arguments of every packet
	// costs about 1,100 more on either engine.
	bound := map[string]float64{"vct": 6000, "wormhole": 4550}
	for _, e := range engines {
		var res Result
		allocs := testing.AllocsPerRun(2, func() {
			s, err := e.new(cfg, g, rt, pat, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			if res, err = s.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > bound[e.name] {
			t.Errorf("%s: %.0f allocs per run with tracing off (%d packets delivered), bound %.0f",
				e.name, allocs, res.DeliveredTotal, bound[e.name])
		}
	}
}
