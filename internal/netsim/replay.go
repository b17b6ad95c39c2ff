package netsim

import (
	"fmt"

	"dsnet/internal/graph"
)

// This file implements the closed-loop replay mode shared by the VCT and
// wormhole engines: instead of the open-loop Bernoulli injection process,
// the simulator executes a deterministic message DAG in which every
// message may inject only after the messages it depends on have been
// fully DELIVERED. The reported metric is the collective completion time
// (makespan) with a per-phase breakdown, not a steady-state latency
// curve. internal/collectives generates such DAGs for the classic
// collective algorithms and bridges them here via ToReplay.

// ReplayMessage is one dependency-gated message of a closed-loop
// workload. A message larger than one packet is segmented into
// ceil(Flits/PacketFlits) packets, all released together; the message
// counts as delivered when its last packet is delivered.
type ReplayMessage struct {
	SrcHost int32
	DstHost int32
	Flits   int32
	// Deps indexes Replay.Messages: all listed messages must be delivered
	// before this one injects at SrcHost.
	Deps []int32
	// Phase tags the message for the per-phase makespan breakdown
	// (indexes Replay.Phases).
	Phase int32
}

// Replay is a closed-loop workload: a message DAG plus phase labels.
type Replay struct {
	Name     string
	Phases   []string
	Messages []ReplayMessage
	// MaxCycles bounds the run (0 selects DefaultReplayMaxCycles). The
	// warmup/measure/drain schedule of Config is ignored in replay mode:
	// the run ends as soon as the workload completes or the bound is hit.
	MaxCycles int64
}

// DefaultReplayMaxCycles bounds replay runs whose Replay.MaxCycles is 0.
// The no-progress watchdog ends stuck runs long before this; the bound
// only caps pathologically slow but live workloads.
const DefaultReplayMaxCycles = 50_000_000

// Validate checks endpoints against the host count and that the
// dependency graph is acyclic, so the replay can always make progress.
func (r *Replay) Validate(hosts int) error {
	n := len(r.Messages)
	if n == 0 {
		return fmt.Errorf("netsim: replay %q has no messages", r.Name)
	}
	indeg := make([]int, n)
	dependents := make([][]int32, n)
	for i, m := range r.Messages {
		if m.SrcHost < 0 || int(m.SrcHost) >= hosts || m.DstHost < 0 || int(m.DstHost) >= hosts {
			return fmt.Errorf("netsim: replay message %d endpoints (%d -> %d) outside [0,%d)", i, m.SrcHost, m.DstHost, hosts)
		}
		if m.SrcHost == m.DstHost {
			return fmt.Errorf("netsim: replay message %d sends host %d to itself", i, m.SrcHost)
		}
		if m.Flits < 1 {
			return fmt.Errorf("netsim: replay message %d has %d flits", i, m.Flits)
		}
		if m.Phase < 0 || (len(r.Phases) > 0 && int(m.Phase) >= len(r.Phases)) {
			return fmt.Errorf("netsim: replay message %d phase %d outside [0,%d)", i, m.Phase, len(r.Phases))
		}
		for _, dep := range m.Deps {
			if dep < 0 || int(dep) >= n {
				return fmt.Errorf("netsim: replay message %d depends on unknown message %d", i, dep)
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
		return fmt.Errorf("netsim: replay %q dependency graph has a cycle", r.Name)
	}
	return nil
}

// replayState is the runtime bookkeeping of one replayed workload,
// shared by the VCT and wormhole engines.
type replayState struct {
	r          *Replay
	packets    []int32   // packets per message
	remaining  []int32   // undelivered packets per message
	unmet      []int32   // unmet dependency count per message
	dependents [][]int32 // reverse dependency edges
	ready      []int32   // FIFO of messages cleared to inject
	done       int       // fully delivered messages
	phaseEnd   []int64   // last delivery cycle per phase, -1 if none yet
	makespan   int64     // last delivery cycle overall
}

func newReplayState(r *Replay, packetFlits, hosts int) (*replayState, error) {
	if err := r.Validate(hosts); err != nil {
		return nil, err
	}
	n := len(r.Messages)
	phases := len(r.Phases)
	rs := &replayState{
		r:          r,
		packets:    make([]int32, n),
		remaining:  make([]int32, n),
		unmet:      make([]int32, n),
		dependents: make([][]int32, n),
	}
	for i, m := range r.Messages {
		pk := (m.Flits + int32(packetFlits) - 1) / int32(packetFlits)
		rs.packets[i] = pk
		rs.remaining[i] = pk
		rs.unmet[i] = int32(len(m.Deps))
		for _, dep := range m.Deps {
			rs.dependents[dep] = append(rs.dependents[dep], int32(i))
		}
		if int(m.Phase) >= phases {
			phases = int(m.Phase) + 1
		}
	}
	for i := range r.Messages {
		if rs.unmet[i] == 0 {
			rs.ready = append(rs.ready, int32(i))
		}
	}
	rs.phaseEnd = make([]int64, phases)
	for i := range rs.phaseEnd {
		rs.phaseEnd[i] = -1
	}
	return rs, nil
}

// onDeliver records one delivered packet of message mi at cycle at and
// releases any dependents whose last dependency this completes.
func (rs *replayState) onDeliver(mi int32, at int64) {
	rs.remaining[mi]--
	if rs.remaining[mi] > 0 {
		return
	}
	rs.done++
	if at > rs.makespan {
		rs.makespan = at
	}
	if ph := rs.r.Messages[mi].Phase; at > rs.phaseEnd[ph] {
		rs.phaseEnd[ph] = at
	}
	for _, dep := range rs.dependents[mi] {
		rs.unmet[dep]--
		if rs.unmet[dep] == 0 {
			rs.ready = append(rs.ready, dep)
		}
	}
}

func (rs *replayState) completed() bool { return rs.done == len(rs.r.Messages) }

// endCycle returns the run bound for this workload.
func (rs *replayState) endCycle() int64 {
	if rs.r.MaxCycles > 0 {
		return rs.r.MaxCycles
	}
	return DefaultReplayMaxCycles
}

// fill populates the replay metrics of a Result.
func (rs *replayState) fill(r *Result, cyc float64) {
	r.ReplayMessages = int64(len(rs.r.Messages))
	r.ReplayDelivered = int64(rs.done)
	r.ReplayCompleted = rs.completed()
	r.MakespanCycles = rs.makespan
	r.MakespanNS = float64(rs.makespan) * cyc
	r.PhaseEndNS = make([]float64, len(rs.phaseEnd))
	for i, c := range rs.phaseEnd {
		r.PhaseEndNS[i] = float64(c) * cyc
	}
}

// SetReplay switches the simulation into closed-loop replay mode: the
// offered-load injection process is disabled and the workload's messages
// inject as their dependencies deliver. Must be called before Run.
// Composes with SetFaultPlan: under VCT switching, packets lost to
// faults retry through the transport layer, and a workload whose
// messages become undeliverable ends via the progress watchdog with
// ReplayCompleted == false. Wormhole switching has no drop/retry
// transport, so a workload that loses its path freezes and ends via the
// watchdog; use VCT switching for collectives-under-failure experiments.
func (s *Sim) SetReplay(r *Replay) error {
	if err := s.started("SetReplay"); err != nil {
		return err
	}
	if r == nil {
		return fmt.Errorf("netsim: nil replay")
	}
	rep, err := newReplayState(r, s.cfg.PacketFlits, s.hosts)
	if err != nil {
		return err
	}
	s.rep = rep
	return nil
}

// releaseReady converts the messages whose dependencies are all
// delivered into packets on their source-host queues.
func (s *Sim) releaseReady() {
	for len(s.rep.ready) > 0 {
		mi := s.rep.ready[0]
		s.rep.ready = s.rep.ready[1:]
		m := &s.rep.r.Messages[mi]
		for k := int32(0); k < s.rep.packets[mi]; k++ {
			p := s.newPacket(m.SrcHost, m.DstHost, mi, true)
			if s.tracing(p) {
				s.trace(p, "GEN", "src", m.SrcHost, "dst", p.dstHost, "msg", mi)
			}
		}
		s.lastProgress = s.now
	}
}

// NewSimReplay builds a VCT simulation executing the closed-loop
// workload r on graph g under router rt (no open-loop traffic). For a
// wormhole replay, call SetReplay on a NewWormSim built at rate 0.
func NewSimReplay(cfg Config, g *graph.Graph, rt Router, r *Replay) (*Sim, error) {
	s, err := NewSim(cfg, g, rt, nil, 0)
	if err != nil {
		return nil, err
	}
	if err := s.SetReplay(r); err != nil {
		return nil, err
	}
	return s, nil
}
