package netsim

import "dsnet/internal/recovery"

// recState is the per-run recovery machinery shared by both engines:
// the armed config, the counters/event tracker, the up*/down* escape
// tables for reinjected packets, and the drain-epoch latch. It exists
// only after SetRecovery; a nil recState means recovery is disarmed and
// every hook below is skipped, which is what keeps zero-fault runs
// bit-identical (see DESIGN.md).
type recState struct {
	cfg recovery.Config
	tr  *recovery.Tracker
	esc *recovery.Escape

	// draining: a fault epoch is quiescing; injection of new packets is
	// paused. swapPending: the fault-aware router's UpdateFaults is
	// deferred until the network is empty.
	draining    bool
	swapPending bool

	// Oldest confirmed victim observed this cycle (VCT engine; the
	// wormhole engine selects its victim inside its own sweep).
	victim   *packet
	victimC  int32
	victimVC int32
	victimSw int32
}

func newRecState(c recovery.Config, esc *recovery.Escape) *recState {
	return &recState{cfg: c, tr: recovery.NewTracker(c), esc: esc}
}

// escapeCandidates is the routing function for recovering packets: the
// single up*/down* escape hop on the recovery VC. Empty when dst is
// unreachable on the surviving graph (the packet then stalls and the
// fault transport, or a further abort, drains it). Escape stays false
// on Detour: recovery traffic is not a fault detour and must not
// perturb Result.Rerouted; hop-TTL instead exempts recovering packets
// explicitly.
func (r *recState) escapeCandidates(st PacketState, sw int, buf []Candidate) []Candidate {
	next, down := r.esc.NextHop(sw, int(st.DstSw), st.descended())
	if next < 0 {
		return buf
	}
	return append(buf, Candidate{
		Next:     int32(next),
		VC:       r.esc.VC(),
		Escape:   true,
		NewState: descState(st.descended() || down),
	})
}

// beginDrain opens (or extends) a drain epoch and defers the pending
// table swap.
func (r *recState) beginDrain(now int64) {
	r.swapPending = true
	if !r.draining {
		r.draining = true
		r.tr.DrainBegin(now)
	}
}

// finishDrain closes the epoch once the engine observes an empty
// network, performing the deferred table swap first.
func (r *recState) finishDrain(now int64, swap func()) {
	if r.swapPending {
		swap()
		r.swapPending = false
	}
	r.draining = false
	r.tr.DrainEnd(now)
}

// fill copies the tracker's books into a Result.
func (r *recState) fill(res *Result, now int64) {
	res.DeadlocksDetected = r.tr.Detected
	res.DeadlocksRecovered = r.tr.Recovered
	res.DeadlocksReleased = r.tr.Released
	res.DeadlocksLost = r.tr.Lost
	res.AbortedFlits = r.tr.AbortedFlits
	res.DeadlockEvents = r.tr.Events
	res.DrainEpochs = r.tr.DrainEpochs
	res.DrainPausedCycles = r.tr.PausedThrough(now)
}
