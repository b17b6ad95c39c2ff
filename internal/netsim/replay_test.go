package netsim

import (
	"math"
	"testing"
)

// lawCycles is the analytic zero-contention packet latency: a packet
// crossing hops switch-to-switch links costs
// (hops+1)*(1 + linkDelay + pipeline) + packetFlits + linkDelay cycles
// (see TestZeroLoadLatencyFormula). Closed-loop replay must obey the
// exact same law — the injection gate adds no cycles of its own.
func lawCycles(cfg Config, hops int64) int64 {
	perHop := 1 + cfg.LinkDelayCycles + int64(cfg.PipelineCycles)
	return (hops+1)*perHop + int64(cfg.PacketFlits) + cfg.LinkDelayCycles
}

func runReplay(t *testing.T, cfg Config, r *Replay) Result {
	t.Helper()
	g := torusGraph(t)
	rt, err := NewDuatoUpDown(g, cfg.VCs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSimReplay(cfg, g, rt, r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReplayValidate(t *testing.T) {
	bad := []*Replay{
		{Name: "empty"},
		{Name: "range", Messages: []ReplayMessage{{SrcHost: 0, DstHost: 9999, Flits: 1}}},
		{Name: "self", Messages: []ReplayMessage{{SrcHost: 3, DstHost: 3, Flits: 1}}},
		{Name: "flits", Messages: []ReplayMessage{{SrcHost: 0, DstHost: 1, Flits: 0}}},
		{Name: "dep", Messages: []ReplayMessage{{SrcHost: 0, DstHost: 1, Flits: 1, Deps: []int32{5}}}},
		{Name: "cycle", Messages: []ReplayMessage{
			{SrcHost: 0, DstHost: 1, Flits: 1, Deps: []int32{1}},
			{SrcHost: 1, DstHost: 2, Flits: 1, Deps: []int32{0}},
		}},
	}
	for _, r := range bad {
		if err := r.Validate(256); err == nil {
			t.Errorf("replay %q accepted", r.Name)
		}
	}
	ok := &Replay{Name: "ok", Messages: []ReplayMessage{
		{SrcHost: 0, DstHost: 1, Flits: 1},
		{SrcHost: 1, DstHost: 2, Flits: 1, Deps: []int32{0}},
	}}
	if err := ok.Validate(256); err != nil {
		t.Fatal(err)
	}
}

// A single dependency-free message reproduces the open-loop single-packet
// latency exactly: same pipeline, same per-hop cost, zero gate overhead.
func TestReplaySingleMessageMatchesLatencyLaw(t *testing.T) {
	cfg := shortCfg()
	for _, pair := range [][2]int32{{0, 255}, {7, 100}, {13, 14}, {200, 3}} {
		res := runReplay(t, cfg, &Replay{
			Name:     "single",
			Messages: []ReplayMessage{{SrcHost: pair[0], DstHost: pair[1], Flits: 1}},
		})
		if !res.ReplayCompleted || res.ReplayDelivered != 1 {
			t.Fatalf("%v: not completed: %+v", pair, res)
		}
		hops := int64(math.Round(res.AvgHops))
		if want := lawCycles(cfg, hops); res.MakespanCycles != want {
			t.Fatalf("%v: makespan %d cycles over %d hops, law says %d", pair, res.MakespanCycles, hops, want)
		}
	}
}

// Open-loop near-zero load obeys the same law on average — the shared
// regression anchor tying the two injection paths to one model. The
// tolerance absorbs the occasional two-packet collision; any systematic
// perturbation of the injection path shifts every packet and fails.
func TestReplayLawMatchesOpenLoopZeroLoad(t *testing.T) {
	cfg := shortCfg()
	cfg.Seed = 7
	g := torusGraph(t)
	res := runSim(t, cfg, g, 0.002)
	if res.DeliveredMeasured == 0 || res.Saturated {
		t.Fatalf("degenerate zero-load run: %+v", res)
	}
	avgCycles := res.AvgLatencyNS / cfg.CycleNS()
	perHop := float64(1 + cfg.LinkDelayCycles + int64(cfg.PipelineCycles))
	want := (res.AvgHops+1)*perHop + float64(cfg.PacketFlits) + float64(cfg.LinkDelayCycles)
	if math.Abs(avgCycles-want) > 0.5 {
		t.Fatalf("open-loop zero-load latency %.3f cycles, law says %.3f", avgCycles, want)
	}
}

// A dependency chain serializes end to end: each message releases in the
// very cycle its predecessor delivers, so the makespan is the sum of the
// per-message laws with zero gate overhead.
func TestReplayChainSerializes(t *testing.T) {
	cfg := shortCfg()
	res := runReplay(t, cfg, &Replay{
		Name:   "chain",
		Phases: []string{"a", "b"},
		Messages: []ReplayMessage{
			{SrcHost: 0, DstHost: 37, Flits: 1, Phase: 0},
			{SrcHost: 37, DstHost: 254, Flits: 1, Deps: []int32{0}, Phase: 1},
		},
	})
	if !res.ReplayCompleted {
		t.Fatalf("chain not completed: %+v", res)
	}
	hopsSum := int64(math.Round(res.AvgHops * 2))
	want := 2*lawCycles(cfg, 0) + hopsSum*(1+cfg.LinkDelayCycles+int64(cfg.PipelineCycles))
	if res.MakespanCycles != want {
		t.Fatalf("chain makespan %d cycles over %d total hops, law says %d", res.MakespanCycles, hopsSum, want)
	}
	if len(res.PhaseEndNS) != 2 || res.PhaseEndNS[0] <= 0 || res.PhaseEndNS[1] != res.MakespanNS {
		t.Fatalf("phase breakdown wrong: %v (makespan %v)", res.PhaseEndNS, res.MakespanNS)
	}
	if res.PhaseEndNS[0] >= res.PhaseEndNS[1] {
		t.Fatalf("phases out of order: %v", res.PhaseEndNS)
	}
}

// A message larger than a packet is segmented and the segments stream
// back to back from the source NIC: for an intra-switch pair the k-th
// packet delivers exactly PacketFlits cycles after the (k-1)-th.
func TestReplaySegmentation(t *testing.T) {
	cfg := shortCfg()
	n := int32(3)
	res := runReplay(t, cfg, &Replay{
		Name:     "seg",
		Messages: []ReplayMessage{{SrcHost: 0, DstHost: 1, Flits: n * int32(cfg.PacketFlits)}},
	})
	if !res.ReplayCompleted {
		t.Fatalf("not completed: %+v", res)
	}
	want := int64(n-1)*int64(cfg.PacketFlits) + lawCycles(cfg, 0)
	if res.MakespanCycles != want {
		t.Fatalf("segmented makespan %d cycles, want %d", res.MakespanCycles, want)
	}
	if res.DeliveredTotal != int64(n) {
		t.Fatalf("%d packets delivered, want %d", res.DeliveredTotal, n)
	}
}

func TestReplayDeterminism(t *testing.T) {
	cfg := shortCfg()
	mk := func() *Replay {
		r := &Replay{Name: "det"}
		for h := int32(0); h < 64; h++ {
			r.Messages = append(r.Messages, ReplayMessage{SrcHost: h, DstHost: (h + 9) % 256, Flits: 70})
		}
		return r
	}
	a := runReplay(t, cfg, mk())
	b := runReplay(t, cfg, mk())
	if a.MakespanCycles != b.MakespanCycles || a.ReplayDelivered != b.ReplayDelivered {
		t.Fatalf("replay diverged: %d vs %d cycles", a.MakespanCycles, b.MakespanCycles)
	}
}

// Replay composes with live fault injection: link failures mid-workload
// are healed by the drop/retry transport and the workload still
// completes, with the packet conservation law intact.
func TestReplayUnderFaultsCompletes(t *testing.T) {
	cfg := shortCfg()
	g := torusGraph(t)
	rt, err := NewDuatoUpDown(g, cfg.VCs)
	if err != nil {
		t.Fatal(err)
	}
	r := &Replay{Name: "faulty"}
	// Several serialized waves across the machine so failures land while
	// traffic is in flight.
	for w := int32(0); w < 4; w++ {
		for h := int32(0); h < 256; h++ {
			m := ReplayMessage{SrcHost: h, DstHost: (h + 64 + w) % 256, Flits: 33}
			if w > 0 {
				m.Deps = []int32{(w-1)*256 + h}
			}
			r.Messages = append(r.Messages, m)
		}
	}
	plan, err := RandomLinkFaults(g, 0.05, 0, 400, 11)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSimReplay(cfg, g, rt, r)
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
	if !res.ReplayCompleted {
		t.Fatalf("workload under 5%% link faults did not complete: delivered %d/%d, lost %d",
			res.ReplayDelivered, res.ReplayMessages, res.Lost)
	}
	if res.GeneratedTotal != res.DeliveredTotal+res.InFlightAtEnd+res.Lost {
		t.Fatalf("conservation violated: gen=%d del=%d inflight=%d lost=%d",
			res.GeneratedTotal, res.DeliveredTotal, res.InFlightAtEnd, res.Lost)
	}
}

// The wormhole engine runs the same workloads; its flit-pipelined
// latency model differs, so assert completion, determinism and phase
// ordering rather than the VCT law.
func TestWormReplayCompletes(t *testing.T) {
	cfg := shortCfg()
	cfg.BufFlitsPerVC = 8
	g := torusGraph(t)
	mk := func() *Replay {
		r := &Replay{Name: "worm", Phases: []string{"scatter", "gather"}}
		for h := int32(0); h < 128; h++ {
			r.Messages = append(r.Messages, ReplayMessage{SrcHost: h, DstHost: h + 128, Flits: 40, Phase: 0})
		}
		for h := int32(0); h < 128; h++ {
			r.Messages = append(r.Messages, ReplayMessage{
				SrcHost: h + 128, DstHost: h, Flits: 40, Deps: []int32{h}, Phase: 1,
			})
		}
		return r
	}
	run := func() Result {
		rt, err := NewDuatoUpDown(g, cfg.VCs)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewWormSim(cfg, g, rt, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetReplay(mk()); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if !a.ReplayCompleted || a.ReplayDelivered != 256 {
		t.Fatalf("wormhole replay incomplete: %+v", a)
	}
	if a.MakespanCycles <= 0 || a.PhaseEndNS[0] >= a.PhaseEndNS[1] || a.PhaseEndNS[1] != a.MakespanNS {
		t.Fatalf("wormhole phase breakdown wrong: %v makespan %v", a.PhaseEndNS, a.MakespanNS)
	}
	if b := run(); b.MakespanCycles != a.MakespanCycles {
		t.Fatalf("wormhole replay diverged: %d vs %d", a.MakespanCycles, b.MakespanCycles)
	}
}

func TestSetReplayRejectsLateOrNil(t *testing.T) {
	cfg := shortCfg()
	g := torusGraph(t)
	rt, err := NewDuatoUpDown(g, cfg.VCs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSim(cfg, g, rt, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetReplay(nil); err == nil {
		t.Fatal("nil replay accepted")
	}
	if err := s.SetReplay(&Replay{Messages: []ReplayMessage{{SrcHost: 0, DstHost: 1, Flits: 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.SetReplay(&Replay{Messages: []ReplayMessage{{SrcHost: 0, DstHost: 1, Flits: 1}}}); err == nil {
		t.Fatal("SetReplay after Run accepted")
	}
}
