package netsim

import (
	"fmt"
	"slices"

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
// The warmup/measure/drain schedule of Config is ignored in replay mode:
// the run ends as soon as the workload completes, stops making progress
// or reaches replayMaxCycles.
//
// The simulators only read a Replay, so runs may share one concurrently.
type Replay struct {
	Name     string
	Phases   []string
	Messages []ReplayMessage
}

// replayMaxCycles bounds every replay run. The no-progress watchdog ends
// stuck runs long before this; the bound only caps pathologically slow
// but live workloads.
const replayMaxCycles = 50_000_000

// Validate checks r as SetReplay does: endpoints against the host count,
// sizes, phases, dependency indices, and that the dependency graph is
// acyclic, so the replay can always make progress.
func (r *Replay) Validate(hosts int) error {
	_, err := newReplayState(r, 1, hosts)
	return err
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

// newReplayState is the one replay validator: it checks every message as
// it builds the bookkeeping, then runs Kahn's algorithm over the
// dependents lists it built, so a replay that cannot finish is refused.
func newReplayState(r *Replay, packetFlits, hosts int) (*replayState, error) {
	n := len(r.Messages)
	if n == 0 {
		return nil, fmt.Errorf("netsim: replay %q has no messages", r.Name)
	}
	phases := len(r.Phases)
	rs := &replayState{
		r:          r,
		packets:    make([]int32, n),
		remaining:  make([]int32, n),
		unmet:      make([]int32, n),
		dependents: make([][]int32, n),
	}
	for i, m := range r.Messages {
		if m.SrcHost < 0 || int(m.SrcHost) >= hosts || m.DstHost < 0 || int(m.DstHost) >= hosts {
			return nil, fmt.Errorf("netsim: replay message %d endpoints (%d -> %d) outside [0,%d)", i, m.SrcHost, m.DstHost, hosts)
		}
		if m.SrcHost == m.DstHost {
			return nil, fmt.Errorf("netsim: replay message %d sends host %d to itself", i, m.SrcHost)
		}
		if m.Flits < 1 {
			return nil, fmt.Errorf("netsim: replay message %d has %d flits", i, m.Flits)
		}
		if m.Phase < 0 || (len(r.Phases) > 0 && int(m.Phase) >= len(r.Phases)) {
			return nil, fmt.Errorf("netsim: replay message %d phase %d outside [0,%d)", i, m.Phase, len(r.Phases))
		}
		for _, dep := range m.Deps {
			if dep < 0 || int(dep) >= n {
				return nil, fmt.Errorf("netsim: replay message %d depends on unknown message %d", i, dep)
			}
			rs.dependents[dep] = append(rs.dependents[dep], int32(i))
		}
		// ceil(Flits/packetFlits), which cannot overflow near MaxInt32.
		pk := (m.Flits-1)/int32(packetFlits) + 1
		rs.packets[i] = pk
		rs.remaining[i] = pk
		rs.unmet[i] = int32(len(m.Deps))
		if rs.unmet[i] == 0 {
			rs.ready = append(rs.ready, int32(i))
		}
		phases = max(phases, int(m.Phase)+1)
	}
	// Kahn's algorithm on a copy of the unmet counts: every message must
	// eventually be released, or some dependency chain is a cycle.
	unmet := slices.Clone(rs.unmet)
	order := append(make([]int32, 0, n), rs.ready...)
	for k := 0; k < len(order); k++ {
		for _, dep := range rs.dependents[order[k]] {
			unmet[dep]--
			if unmet[dep] == 0 {
				order = append(order, dep)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("netsim: replay %q dependency graph has a cycle", r.Name)
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
	for i := 0; i < len(s.rep.ready); i++ {
		mi := s.rep.ready[i]
		m := &s.rep.r.Messages[mi]
		for k := int32(0); k < s.rep.packets[mi]; k++ {
			p := s.newPacket(m.SrcHost, m.DstHost, mi, true)
			if s.tracing(p) {
				s.trace(p, "GEN", "src", m.SrcHost, "dst", p.dstHost, "msg", mi)
			}
		}
		s.lastProgress = s.now
	}
	// Emptied, the list keeps its array for the next release.
	s.rep.ready = s.rep.ready[:0]
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
