package netsim

import (
	"fmt"
	"slices"

	"dsnet/internal/recovery"
)

// Result aggregates one simulation run.
type Result struct {
	OfferedFlitsPerCycle float64 // per host, as configured
	OfferedGbps          float64 // per host
	AcceptedGbps         float64 // per host, measured in the window
	AvgLatencyNS         float64 // over packets generated in the window
	P99LatencyNS         float64
	MaxLatencyNS         float64
	AvgHops              float64 // switch-to-switch hops per measured packet
	// EscapeFraction is the share of switch grants that used the
	// up*/down* escape channel during the window (VCT engine only).
	// Near zero below saturation; grows as adaptive channels congest.
	EscapeFraction float64

	GeneratedMeasured int64 // packets generated inside the window
	DeliveredMeasured int64 // of those, delivered before the run ended
	DeliveredTotal    int64
	GeneratedTotal    int64
	InFlightAtEnd     int64
	// MaxHOLWaitCycles is the largest head-of-line wait observed over
	// the whole run: how long a routable head-of-queue packet sat
	// blocked before its grant (or drop). Low below saturation; grows
	// under congestion; explodes toward the run length when the fabric
	// deadlocks or starves a flow (the hol-wait monitor's raw signal).
	MaxHOLWaitCycles int64

	// Fault-tolerance counters, nonzero only under a FaultPlan with at
	// least one failure. Conservation under faults is
	// GeneratedTotal == DeliveredTotal + InFlightAtEnd + Lost.
	Dropped            int64 // drop events: flit loss on dead components + timeouts
	Lost               int64 // packets permanently lost (retry budget exhausted)
	Retried            int64 // source reinjections after a drop
	TimedOut           int64 // of Dropped, head-of-line transport timeouts
	Rerouted           int64 // packets that took >= 1 fault-detour grant
	DeliveredPostFault int64 // measured deliveries generated at/after the first failure
	PostFaultP50NS     float64
	PostFaultP99NS     float64

	// Multipath flow accounting, nonzero only when the router implements
	// PathIndexer (source-routed path spraying). OutOfOrder counts
	// deliveries whose PktID undercut their flow's delivered high-water
	// mark; PathSpread is the mean number of distinct paths per
	// (srcHost, dstHost) flow with at least one delivery.
	OutOfOrder int64
	PathSpread float64

	// Closed-loop replay metrics, meaningful only when the run executed a
	// Replay (SetReplay). MakespanCycles/NS is the delivery time of the
	// workload's last message; PhaseEndNS[i] is the delivery time of the
	// last message of phase i (-CycleNS if the phase delivered nothing).
	// ReplayCompleted is false when messages were permanently lost (fault
	// retry budget exhausted) or the run bound was hit first.
	ReplayMessages  int64
	ReplayDelivered int64
	ReplayCompleted bool
	MakespanCycles  int64
	MakespanNS      float64
	PhaseEndNS      []float64

	// Runtime deadlock detection & recovery books (SetRecovery); all
	// zero (and DeadlockEvents nil) when recovery is disarmed or never
	// fired, so arming recovery on a clean run leaves the Result
	// byte-identical. Every confirmed deadlock resolves exactly one way:
	// DeadlocksDetected == DeadlocksRecovered + DeadlocksReleased +
	// DeadlocksLost once the run completes (Released: a peer abort broke
	// the cycle and the packet resumed without its own teardown).
	// DrainPausedCycles counts cycles spent inside fault-epoch drain
	// windows (injection paused).
	DeadlocksDetected  int64
	DeadlocksRecovered int64
	DeadlocksReleased  int64
	DeadlocksLost      int64 // aborts past the budget, counted in Lost too
	AbortedFlits       int64
	DrainEpochs        int64
	DrainPausedCycles  int64
	DeadlockEvents     []recovery.DeadlockEvent

	// Flit-granularity books (wormhole engine only): every injected flit
	// is eventually ejected, aborted, or resident in a buffer/on a wire
	// at run end — InjectedFlits - EjectedFlits - AbortedFlits is the
	// resident remainder and can never go negative. The VCT engine moves
	// whole packets and leaves these zero.
	InjectedFlits int64
	EjectedFlits  int64

	// Saturated is set when a meaningful fraction of measured packets
	// never arrived: latency figures are then unreliable (the network is
	// past its saturation point).
	Saturated bool

	// ChannelFlits holds per-directed-channel forwarded flits during the
	// measurement window (inter-switch channels only), for traffic
	// balance analysis.
	ChannelFlits []int64
}

func (s *Sim) result() Result {
	cyc := s.cfg.CycleNS()
	r := Result{
		OfferedFlitsPerCycle: s.rate,
		OfferedGbps:          s.rate * s.cfg.GbpsPerFlitPerCycle(),
		GeneratedMeasured:    s.genMeasured,
		DeliveredMeasured:    s.delMeasured,
		DeliveredTotal:       s.deliveredTotal,
		GeneratedTotal:       s.generatedTotal,
		InFlightAtEnd:        s.inFlight,
		MaxHOLWaitCycles:     s.maxHOLWait,
		Dropped:              s.droppedTotal,
		Lost:                 s.lostTotal,
		Retried:              s.retriedTotal,
		TimedOut:             s.timedOutTotal,
		Rerouted:             s.reroutedPkts,
		DeliveredPostFault:   s.delPostFault,
		InjectedFlits:        s.flitsInjected,
		EjectedFlits:         s.flitsEjected,
		ChannelFlits:         s.chanFlits[:2*s.g.M()],
	}
	if s.grantsInWindow > 0 {
		r.EscapeFraction = float64(s.escGrantsInWindow) / float64(s.grantsInWindow)
	}
	flitsPerHostPerCycle := float64(s.flitsInWindow) / float64(s.cfg.MeasureCycles) / float64(s.hosts)
	r.AcceptedGbps = flitsPerHostPerCycle * s.cfg.GbpsPerFlitPerCycle()
	if s.delMeasured > 0 {
		r.AvgLatencyNS = float64(s.latencySum) / float64(s.delMeasured) * cyc
		r.AvgHops = float64(s.hopsSum) / float64(s.delMeasured)
		sorted := slices.Clone(s.latencies)
		slices.Sort(sorted)
		r.P99LatencyNS = float64(sorted[percentileIdx(len(sorted), 0.99)]) * cyc
		r.MaxLatencyNS = float64(sorted[len(sorted)-1]) * cyc
	}
	if len(s.postFaultLats) > 0 {
		sorted := slices.Clone(s.postFaultLats)
		slices.Sort(sorted)
		r.PostFaultP50NS = float64(sorted[percentileIdx(len(sorted), 0.50)]) * cyc
		r.PostFaultP99NS = float64(sorted[percentileIdx(len(sorted), 0.99)]) * cyc
	}
	if s.genMeasured > 0 {
		undelivered := s.genMeasured - s.delMeasured
		r.Saturated = float64(undelivered) > 0.02*float64(s.genMeasured)
	}
	if s.watchdogTripped && !s.failStop {
		r.Saturated = true
	}
	if s.rep != nil {
		s.rep.fill(&r, cyc)
	}
	if s.rec != nil {
		s.rec.fill(&r, s.now)
	}
	s.flows.fill(&r)
	return r
}

// percentileIdx returns the clamped index of the q-quantile in a sorted
// slice of length n.
func percentileIdx(n int, q float64) int {
	i := int(float64(n) * q)
	if i >= n {
		i = n - 1
	}
	return i
}

// String renders a compact one-line summary.
func (r Result) String() string {
	sat := ""
	if r.Saturated {
		sat = " SATURATED"
	}
	return fmt.Sprintf("offered %.2f Gbps/host accepted %.2f Gbps/host latency %.0f ns (p99 %.0f)%s",
		r.OfferedGbps, r.AcceptedGbps, r.AvgLatencyNS, r.P99LatencyNS, sat)
}
