package netsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
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

// replayValidateCases are replays every validator must refuse (ok
// false) or accept. Each keeps its verdict over any host count from 8
// to 9,999, so FuzzReplayState seeds them over 8 hosts.
var replayValidateCases = []struct {
	r  *Replay
	ok bool
}{
	{&Replay{Name: "empty"}, false},
	{&Replay{Name: "range", Messages: []ReplayMessage{{SrcHost: 0, DstHost: 9999, Flits: 1}}}, false},
	{&Replay{Name: "self", Messages: []ReplayMessage{{SrcHost: 3, DstHost: 3, Flits: 1}}}, false},
	{&Replay{Name: "flits", Messages: []ReplayMessage{{SrcHost: 0, DstHost: 1, Flits: 0}}}, false},
	{&Replay{Name: "dep", Messages: []ReplayMessage{{SrcHost: 0, DstHost: 1, Flits: 1, Deps: []int32{5}}}}, false},
	{&Replay{Name: "cycle", Messages: []ReplayMessage{
		{SrcHost: 0, DstHost: 1, Flits: 1, Deps: []int32{1}},
		{SrcHost: 1, DstHost: 2, Flits: 1, Deps: []int32{0}},
	}}, false},
	{&Replay{Name: "ok", Messages: []ReplayMessage{
		{SrcHost: 0, DstHost: 1, Flits: 1},
		{SrcHost: 1, DstHost: 2, Flits: 1, Deps: []int32{0}},
	}}, true},
}

func TestReplayValidate(t *testing.T) {
	for _, c := range replayValidateCases {
		if err := c.r.Validate(256); (err == nil) != c.ok {
			t.Errorf("replay %q: Validate = %v, want ok %v", c.r.Name, err, c.ok)
		}
	}
}

// oracleValidate is the two-pass validator newReplayState replaced:
// the same per-message checks, then Kahn's algorithm over dependents
// lists of its own. FuzzReplayState holds the one validator to it.
func oracleValidate(r *Replay, hosts int) error {
	n := len(r.Messages)
	if n == 0 {
		return fmt.Errorf("no messages")
	}
	indeg := make([]int, n)
	dependents := make([][]int32, n)
	for i, m := range r.Messages {
		if m.SrcHost < 0 || int(m.SrcHost) >= hosts || m.DstHost < 0 || int(m.DstHost) >= hosts {
			return fmt.Errorf("message %d endpoints", i)
		}
		if m.SrcHost == m.DstHost {
			return fmt.Errorf("message %d self-send", i)
		}
		if m.Flits < 1 {
			return fmt.Errorf("message %d flits", i)
		}
		if m.Phase < 0 || (len(r.Phases) > 0 && int(m.Phase) >= len(r.Phases)) {
			return fmt.Errorf("message %d phase", i)
		}
		for _, dep := range m.Deps {
			if dep < 0 || int(dep) >= n {
				return fmt.Errorf("message %d dependency", i)
			}
			indeg[i]++
			dependents[dep] = append(dependents[dep], int32(i))
		}
	}
	ready := make([]int32, 0, n)
	for i, deg := range indeg {
		if deg == 0 {
			ready = append(ready, int32(i))
		}
	}
	seen := 0
	for len(ready) > 0 {
		m := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		seen++
		for _, dep := range dependents[m] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	if seen != n {
		return fmt.Errorf("cycle")
	}
	return nil
}

// encodeReplay is decodeReplay's inverse for replays its format can hold.
func encodeReplay(hosts, packetFlits int, r *Replay) []byte {
	data := []byte{byte(hosts), byte(packetFlits - 1), byte(len(r.Phases))}
	for _, m := range r.Messages {
		data = binary.BigEndian.AppendUint16(data, uint16(m.SrcHost))
		data = binary.BigEndian.AppendUint16(data, uint16(m.DstHost))
		data = binary.BigEndian.AppendUint32(data, uint32(m.Flits))
		data = append(data, byte(m.Phase), byte(len(m.Deps)))
		for _, d := range m.Deps {
			data = append(data, byte(d))
		}
	}
	return data
}

// decodeReplay turns fuzz bytes into a replay of at most 16 messages
// over at most 8 hosts: a header of host count, packet size and phase
// name count, then per message signed 16-bit endpoints, a signed 32-bit
// flit count, a signed phase, and up to 3 signed dependency indices.
func decodeReplay(data []byte) (r *Replay, hosts, packetFlits int) {
	if len(data) < 3 {
		return &Replay{Name: "fuzz"}, 0, 1
	}
	hosts, packetFlits = int(data[0]%9), 1+int(data[1]%32)
	r = &Replay{Name: "fuzz", Phases: []string{"p0", "p1", "p2"}[:data[2]%4]}
	data = data[3:]
	for len(data) >= 10 && len(r.Messages) < 16 {
		m := ReplayMessage{
			SrcHost: int32(int16(binary.BigEndian.Uint16(data))),
			DstHost: int32(int16(binary.BigEndian.Uint16(data[2:]))),
			Flits:   int32(binary.BigEndian.Uint32(data[4:])),
			Phase:   int32(int8(data[8])),
		}
		deps := int(data[9] % 4)
		data = data[10:]
		for ; deps > 0 && len(data) > 0; deps-- {
			m.Deps = append(m.Deps, int32(int8(data[0])))
			data = data[1:]
		}
		r.Messages = append(r.Messages, m)
	}
	return r, hosts, packetFlits
}

// FuzzReplayState holds the one replay validator, newReplayState, to
// the two-pass oracle it replaced on arbitrary replays: it accepts
// exactly what the oracle accepts, and an accepted replay's state
// starts with the dependency-free messages ready in index order, the
// reverse dependency edges, and ceil(Flits/PacketFlits) packets per
// message.
func FuzzReplayState(f *testing.F) {
	for _, c := range replayValidateCases {
		f.Add(encodeReplay(8, 16, c.r))
	}
	// A message of nearly 2^31 flits at 16-flit packets.
	f.Add(encodeReplay(4, 16, &Replay{Messages: []ReplayMessage{{SrcHost: 0, DstHost: 1, Flits: math.MaxInt32}}}))
	// A diamond with a repeated dependency, over two phases.
	f.Add(encodeReplay(3, 4, &Replay{Phases: []string{"a", "b"}, Messages: []ReplayMessage{
		{SrcHost: 0, DstHost: 1, Flits: 9},
		{SrcHost: 1, DstHost: 2, Flits: 4, Deps: []int32{0}},
		{SrcHost: 2, DstHost: 0, Flits: 5, Deps: []int32{0, 0}, Phase: 1},
		{SrcHost: 0, DstHost: 2, Flits: 1, Deps: []int32{2, 1}, Phase: 1},
	}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, hosts, packetFlits := decodeReplay(data)
		rs, err := newReplayState(r, packetFlits, hosts)
		want := oracleValidate(r, hosts)
		if (err == nil) != (want == nil) {
			t.Fatalf("newReplayState err %v, oracle err %v on %+v over %d hosts", err, want, r, hosts)
		}
		if err != nil {
			return
		}
		n := len(r.Messages)
		var ready []int32
		dependents := make([][]int32, n)
		phases := len(r.Phases)
		for i, m := range r.Messages {
			if len(m.Deps) == 0 {
				ready = append(ready, int32(i))
			}
			for _, d := range m.Deps {
				dependents[d] = append(dependents[d], int32(i))
			}
			phases = max(phases, int(m.Phase)+1)
			pk := (int64(m.Flits) + int64(packetFlits) - 1) / int64(packetFlits)
			if int64(rs.packets[i]) != pk || rs.remaining[i] != rs.packets[i] {
				t.Fatalf("message %d of %d flits: %d packets, %d remaining, want %d at %d flits per packet",
					i, m.Flits, rs.packets[i], rs.remaining[i], pk, packetFlits)
			}
			if int(rs.unmet[i]) != len(m.Deps) {
				t.Fatalf("message %d: %d unmet dependencies, want %d", i, rs.unmet[i], len(m.Deps))
			}
		}
		if !reflect.DeepEqual(rs.ready, ready) {
			t.Fatalf("ready %v, want %v", rs.ready, ready)
		}
		if !reflect.DeepEqual(rs.dependents, dependents) {
			t.Fatalf("dependents %v, want %v", rs.dependents, dependents)
		}
		if len(rs.phaseEnd) != phases || slices.ContainsFunc(rs.phaseEnd, func(c int64) bool { return c != -1 }) {
			t.Fatalf("phaseEnd %v, want %d phases at -1", rs.phaseEnd, phases)
		}
	})
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
