package netsim

import "math"

// vct is virtual cut-through flow control (NewSim): buffers hold whole
// packets, so a packet is granted an output only when the downstream VC
// has credits for all of it, and ports stay reserved while it streams.
type vct struct {
	Sim

	vcq      []vcQueue
	hostBusy []int64 // host NIC streaming until (per host)

	rrIn []int // per-switch round-robin input pointer
	rrVC []int // per-channel round-robin VC pointer

	// Routable heads (DESIGN.md §8): per switch and per input channel,
	// the VC queues whose head has cleared the header pipeline, kept by
	// enqueue, dequeue and activate so that allocate visits only where a
	// head can act. A head still in the pipeline waits in pipe, a calendar
	// of PipelineCycles+1 slots indexed by its routableAt; each slot is a
	// list of queues (vcIdx+1, 0 = none) linked through vcQueue.next.
	swRoutable   []int32
	chanRoutable []int32
	pipe         []int32

	// Route reuse: a head whose grant failed keeps its routing answer in
	// a pooled memo until it leaves its queue or routeEpoch advances
	// (fault masks, router tables or the recovery escape changed).
	memos     []routeMemo
	freeMemos []int32

	scratch      []Candidate // reusable candidate buffer
	scratchChans []int32     // resolved channels of scratch
}

// newVCT attaches VCT flow control to the fabric s.
func newVCT(s Sim) *vct {
	vcs := s.cfg.VCs
	v := &vct{
		Sim:          s,
		vcq:          make([]vcQueue, s.nChan*vcs),
		hostBusy:     make([]int64, s.hosts),
		rrIn:         make([]int, s.nSw),
		rrVC:         make([]int, s.nChan),
		swRoutable:   make([]int32, s.nSw),
		chanRoutable: make([]int32, s.nChan),
		pipe:         make([]int32, s.cfg.PipelineCycles+1),
	}
	perSwitch := 0 // input VCs of the busiest switch
	v.park.pos = make([]int32, s.nChan)
	for _, ins := range s.inChans {
		for i, c := range ins {
			v.park.pos[c] = int32(i)
		}
		perSwitch = max(perSwitch, len(ins)*vcs)
	}
	v.park.sets = 2 * s.g.M() * vcs
	v.park.words = (perSwitch + 63) / 64
	v.park.wake = make([]int64, s.nChan*vcs)
	v.park.waiters = make([]uint64, v.park.sets*v.park.words)
	v.fc = v
	return v
}

// vcEntry is a packet queued in an input VC buffer.
type vcEntry struct {
	pkt        *packet
	routableAt int64 // header arrival + pipeline delay
}

// vcQueue is a FIFO of packets sharing one input VC buffer. memo is the
// route memo of the blocked head packet (index+1 into vct.memos, 0 =
// none); see keepRoute. routable marks a head counted in the routable
// counts; a non-empty queue whose head is not routable yet sits in the
// pipe calendar, and next links it to the following queue there.
type vcQueue struct {
	entries  []vcEntry
	head     int32
	memo     int32
	next     int32
	routable bool
}

func (q *vcQueue) empty() bool { return int(q.head) >= len(q.entries) }

func (q *vcQueue) front() *vcEntry { return &q.entries[q.head] }

func (q *vcQueue) push(e vcEntry) { q.entries = append(q.entries, e) }

func (q *vcQueue) pop() {
	q.head++
	if q.empty() {
		q.entries = q.entries[:0]
		q.head = 0
	} else if q.head > 64 && int(q.head)*2 > len(q.entries) {
		n := copy(q.entries, q.entries[q.head:])
		q.entries = q.entries[:n]
		q.head = 0
	}
}

// routeMemo keeps a blocked head's routing answer: its candidate list
// and each candidate's resolved output channel (chanPerAttempt where
// parallel live links leave the choice to findOutChan on every attempt).
// It is valid while epoch matches Sim.routeEpoch.
type routeMemo struct {
	cands []Candidate
	chans []int32
	epoch uint64
}

// chanPerAttempt marks a memoized candidate whose neighbor is reachable
// over more than one live channel: findOutChan prefers an idle one, so
// the channel is resolved again on every attempt.
const chanPerAttempt int32 = -2

// arrive buffers a packet whose tail has crossed the wire, or drops it
// when the link died while its flits were in flight.
func (s *vct) arrive(ev wheelEv) {
	if s.faultActive && s.chanDead[int(ev.vcIdx)/s.cfg.VCs] {
		s.faultDrop(ev.pkt, "FAULT")
		return
	}
	s.enqueue(ev.vcIdx, vcEntry{pkt: ev.pkt, routableAt: s.now + s.cfg.PipelineCycles})
}

// enqueue appends a packet to input VC vcIdx; a packet that becomes the
// head starts its header pipeline.
func (s *vct) enqueue(vcIdx int32, e vcEntry) {
	q := &s.vcq[vcIdx]
	wasEmpty := q.empty()
	q.push(e)
	if wasEmpty {
		s.newHead(vcIdx)
	}
}

// dequeue removes the head of input VC vcIdx, releasing its route memo
// and its parking and keeping the routable counts.
func (s *vct) dequeue(vcIdx int32) {
	q := &s.vcq[vcIdx]
	if q.routable {
		s.countRoutable(vcIdx, -1)
	} else {
		s.unpipe(vcIdx)
	}
	if q.memo != 0 {
		s.freeMemos = append(s.freeMemos, q.memo-1)
		q.memo = 0
	}
	s.park.wake[vcIdx] = 0
	q.pop()
	if !q.empty() {
		s.newHead(vcIdx)
	}
}

// newHead counts the new head of input VC vcIdx as routable, or files
// it in the pipe calendar until its header clears the pipeline.
func (s *vct) newHead(vcIdx int32) {
	q := &s.vcq[vcIdx]
	at := q.front().routableAt
	if at <= s.now {
		s.countRoutable(vcIdx, 1)
		return
	}
	slot := &s.pipe[at%int64(len(s.pipe))]
	q.next, *slot = *slot, vcIdx+1
}

// unpipe takes input VC vcIdx, whose head is still in the pipeline, out
// of the pipe calendar.
func (s *vct) unpipe(vcIdx int32) {
	q := &s.vcq[vcIdx]
	link := &s.pipe[q.front().routableAt%int64(len(s.pipe))]
	for *link != vcIdx+1 {
		link = &s.vcq[*link-1].next
	}
	*link, q.next = q.next, 0
}

// activate counts the heads whose header clears the pipeline this cycle.
func (s *vct) activate() {
	slot := &s.pipe[s.now%int64(len(s.pipe))]
	for i := *slot; i != 0; {
		q := &s.vcq[i-1]
		s.countRoutable(i-1, 1)
		i, q.next = q.next, 0
	}
	*slot = 0
}

// countRoutable adds d to the routable counts of input VC vcIdx's
// channel and switch and marks its head accordingly.
func (s *vct) countRoutable(vcIdx, d int32) {
	c := vcIdx / int32(s.cfg.VCs)
	s.chanRoutable[c] += d
	s.swRoutable[s.chanDst[c]] += d
	s.vcq[vcIdx].routable = d > 0
}

// driveHosts starts streaming the head packet of each host queue into
// its switch when the NIC is idle and a VC has a packet's worth of
// credits. It visits the hosts with a queued packet, in host order.
func (s *vct) driveHosts() {
	if s.rec != nil && s.rec.draining {
		return // drain epoch: no new packets enter the network
	}
	for hi := nextBit(s.hostWork, 0); hi >= 0; hi = nextBit(s.hostWork, hi+1) {
		h := int(hi)
		if s.faultActive && s.swDead[h/s.cfg.HostsPerSwitch] {
			continue // hosts of a dead switch are offline
		}
		if s.hostBusy[h] > s.now {
			continue
		}
		c := int32(2*s.g.M() + h)
		bestVC := -1
		var bestCr int32
		for vc := 0; vc < s.cfg.VCs; vc++ {
			if cr := s.credits[c*int32(s.cfg.VCs)+int32(vc)]; cr >= int32(s.cfg.PacketFlits) && cr > bestCr {
				bestCr = cr
				bestVC = vc
			}
		}
		if bestVC < 0 {
			continue
		}
		p := s.popHost(h)
		if len(s.hostQ[h]) == 0 {
			s.hostIdle(hi)
		}
		s.inNetwork++
		s.hostBusy[h] = s.now + int64(s.cfg.PacketFlits)
		s.credits[c*int32(s.cfg.VCs)+int32(bestVC)] -= int32(s.cfg.PacketFlits)
		s.wheel.schedule(s.now, s.now+1+s.linkDelay[c], wheelEv{
			kind:  evArrive,
			vcIdx: c*int32(s.cfg.VCs) + int32(bestVC),
			pkt:   p,
		})
		if s.tracing(p) {
			s.trace(p, "INJECT", "switch", h/s.cfg.HostsPerSwitch, "vc", bestVC)
		}
		s.lastProgress = s.now
	}
}

// allocate performs routing, VC allocation and switch allocation for one
// cycle: every input port may launch at most one packet, every output
// port may accept at most one.
//
// Switches and input channels with no routable head are skipped: a
// visit there grants nothing, moves no round-robin pointer and has no
// other side effect, so the skip leaves every cycle exactly as a full
// scan would.
func (s *vct) allocate() {
	s.activate()
	for sw := 0; sw < s.nSw; sw++ {
		if s.swRoutable[sw] == 0 || (s.faultActive && s.swDead[sw]) {
			continue
		}
		ins := s.inChans[sw]
		// Tier 1: through traffic, round-robin.
		thru := ins[:s.thruCount[sw]]
		granted := false
		if n := len(thru); n > 0 {
			start := s.rrIn[sw] % n
			for k, i := 0, start; k < n; k++ {
				c := thru[i]
				if i++; i == n {
					i = 0
				}
				if s.chanRoutable[c] == 0 || s.inBusy[c] > s.now {
					continue
				}
				if s.tryInput(sw, c) {
					granted = true
				}
			}
			if granted {
				s.rrIn[sw] = (start + 1) % n
			}
		}
		// Tier 2: injection channels take whatever outputs remain.
		for _, c := range ins[s.thruCount[sw]:] {
			if s.chanRoutable[c] == 0 || s.inBusy[c] > s.now {
				continue
			}
			s.tryInput(sw, c)
		}
	}
}

// tryInput attempts to grant the head packet of one VC of input channel c
// at switch sw. Returns true if a packet was launched. A parked head
// keeps its visit; only its grant attempt, which could not succeed, is
// skipped.
func (s *vct) tryInput(sw int, c int32) bool {
	vcs := s.cfg.VCs
	startVC := s.rrVC[c] % vcs
	for j, vc := 0, startVC; j < vcs; j, vc = j+1, vc+1 {
		if vc == vcs {
			vc = 0
		}
		vcIdx := c*int32(vcs) + int32(vc)
		q := &s.vcq[vcIdx]
		if !q.routable {
			continue // empty, or its head is still in the pipeline
		}
		e := q.front()
		if wait := s.now - e.routableAt; wait > s.maxHOLWait {
			s.maxHOLWait = wait
		}
		if s.mon.MaxHOLWaitCycles > 0 && s.now-e.routableAt > s.mon.MaxHOLWaitCycles {
			s.violate(MonitorHOLWait, e.pkt.st.PktID,
				"head-of-line packet waited %d cycles (bound %d) at switch %d channel %d",
				s.now-e.routableAt, s.mon.MaxHOLWaitCycles, sw, c)
		}
		if s.faultActive && s.now-e.routableAt > s.faultTimeout && !e.pkt.deadlocked {
			// (A confirmed deadlock victim is excluded: recovery owns it
			// and will abort it within the pacing backlog, keeping the
			// detected == recovered + lost identity exact. With recovery
			// disarmed, deadlocked is never set and nothing changes.)
			// Head-of-line timeout: under faults a packet that cannot get
			// a grant (typically because its destination became
			// unreachable) drains back to the source retry path instead
			// of wedging the network.
			p := e.pkt
			s.dequeue(vcIdx)
			s.timedOutTotal++
			s.returnCredits(c, int32(vc))
			s.faultDrop(p, "TIMEOUT")
			continue
		}
		if s.park.wake[vcIdx] <= s.now && s.grant(sw, c, int32(vc), e.pkt) {
			s.dequeue(vcIdx)
			s.rrVC[c] = (vc + 1) % vcs
			return true
		}
		if s.rec != nil {
			s.observeStall(sw, c, int32(vc), e)
		}
	}
	return false
}

// observeStall advances the deadlock-detection state machine for a head
// packet that just failed to get a grant. First pass: a head stalled
// past StallThresholdCycles becomes a suspect. Second pass: a suspect
// that still cannot move ConfirmCycles later is confirmed — the failed
// grant() call that routed here IS the resource re-check, since it just
// re-examined every candidate output and found all of them held. The
// oldest confirmed packet observed this cycle becomes the abort victim
// (breakDeadlock). Everything here is passive: no RNG, no flow control.
func (s *vct) observeStall(sw int, c, vc int32, e *vcEntry) {
	p := e.pkt
	if s.now-e.routableAt < s.rec.cfg.StallThresholdCycles {
		return
	}
	if p.suspectAt == 0 {
		p.suspectAt = s.now
		return
	}
	if s.now-p.suspectAt < s.rec.cfg.ConfirmCycles {
		return
	}
	if !p.deadlocked {
		p.deadlocked = true
		s.rec.tr.Confirmed(s.now, p.st.PktID, int32(sw))
		if s.tracing(p) {
			s.trace(p, "DLKCONF", "switch", sw, "waited", s.now-e.routableAt)
		}
	}
	if v := s.rec.victim; v == nil || older(p, v) {
		s.rec.victim, s.rec.victimC, s.rec.victimVC, s.rec.victimSw = p, c, vc, int32(sw)
	}
}

// grant routes packet p (currently at the head of input (c, vc) of switch
// sw) to an output if one is available. Returns true on success; a head
// left blocked is parked (parkHead).
func (s *vct) grant(sw int, c, vc int32, p *packet) bool {
	pf := int64(s.cfg.PacketFlits)
	vcIdx := c*int32(s.cfg.VCs) + vc
	if int32(sw) == p.st.DstSw {
		// Ejection to the destination host.
		host := int(p.dstHost)
		if s.ejBusy[host] > s.now {
			s.park.wake[vcIdx] = s.ejBusy[host] // until the port frees
			return false
		}
		s.ejBusy[host] = s.now + pf
		s.inBusy[c] = s.now + pf
		s.wheel.schedule(s.now, s.now+pf+s.cfg.LinkDelayCycles, wheelEv{kind: evDeliver, pkt: p})
		s.returnCredits(c, vc)
		if s.tracing(p) {
			s.trace(p, "EJECT", "switch", sw, "host", host)
		}
		s.lastProgress = s.now
		s.released(p, int32(sw))
		return true
	}
	if s.mon.HopTTL > 0 && !p.rerouted && !p.recovering && p.st.Step >= s.mon.HopTTL {
		// The packet has already taken HopTTL hops and still is not at
		// its destination: the next grant would exceed the bound.
		s.violate(MonitorHopTTL, p.st.PktID, "packet exceeded the %d-hop route bound (src sw %d, dst sw %d, at sw %d)",
			s.mon.HopTTL, p.st.SrcSw, p.st.DstSw, sw)
		return false
	}
	q := &s.vcq[vcIdx]
	if q.memo != 0 {
		if m := &s.memos[q.memo-1]; m.epoch == s.routeEpoch {
			if s.launch(sw, c, vc, p, m.cands, m.chans) {
				return true
			}
			s.parkHead(vcIdx, p, m)
			return false
		}
	}
	if p.recovering {
		// A recovery-reinjected packet rides the up*/down* escape network
		// exclusively; it never re-enters the routing function whose
		// dependency cycle it was cut out of.
		s.scratch = s.rec.escapeCandidates(p.st, sw, s.scratch[:0])
	} else {
		s.scratch = s.rt.Candidates(p.st, sw, s.scratch[:0])
	}
	s.scratchChans = s.scratchChans[:0]
	for _, cand := range s.scratch {
		s.scratchChans = append(s.scratchChans, s.resolveChan(sw, cand))
	}
	if s.launch(sw, c, vc, p, s.scratch, s.scratchChans) {
		return true
	}
	s.keepRoute(q)
	s.parkHead(vcIdx, p, &s.memos[q.memo-1])
	return false
}

// parkHead parks the head p of input VC vcIdx after a failed grant
// through its current route memo m, until the first cycle a grant could
// succeed (DESIGN.md §8 has the argument): the earliest busy-until stamp
// among the considered candidates that have a packet's worth of
// credits, or the end of the escape patience while it runs. A returning
// credit on a candidate that lacks them, a routing epoch and the head's
// dequeue wake it earlier. A head with a candidate whose channel launch
// resolves on every attempt is not parked.
func (s *vct) parkHead(vcIdx int32, p *packet, m *routeMemo) {
	hasAdaptive := false
	for i, cand := range m.cands {
		if m.chans[i] == chanPerAttempt {
			return
		}
		hasAdaptive = hasAdaptive || !cand.Escape
	}
	wake := int64(math.MaxInt64)
	patienceUp := true
	if up := p.blockSince + s.cfg.EscapePatienceCycles; hasAdaptive && up > s.now {
		patienceUp, wake = false, up
	}
	vcs := int32(s.cfg.VCs)
	pf := int32(s.cfg.PacketFlits)
	bit := s.park.pos[vcIdx/vcs]*vcs + vcIdx%vcs
	for i, cand := range m.cands {
		oc := m.chans[i]
		if (cand.Escape && !patienceUp) || oc < 0 || (s.faultActive && s.chanDead[oc]) {
			continue // not considered, or dead until the next routing epoch
		}
		ci := oc*vcs + int32(cand.VC)
		if s.credits[ci] < pf {
			s.park.waiters[int(ci)*s.park.words+int(bit>>6)] |= 1 << (bit & 63)
			continue
		}
		wake = min(wake, s.outBusy[oc])
	}
	s.park.wake[vcIdx] = wake
}

// resolveChan resolves a candidate to a directed channel for the route
// memo, honoring a pinned physical edge when the router specified one.
// An unpinned hop to a neighbor with several live channels returns
// chanPerAttempt: findOutChan's idle-port preference changes from cycle
// to cycle. Everything else it reads changes only at a routing epoch.
func (s *vct) resolveChan(sw int, cand Candidate) int32 {
	if ei := cand.pinnedEdge(); ei >= 0 {
		return s.pinnedChan(sw, ei, cand.Next)
	}
	oc := int32(-1)
	for _, h := range s.g.Neighbors(sw) {
		if h.To != cand.Next {
			continue
		}
		c := s.outChanOf(sw, h)
		if s.faultActive && s.chanDead[c] {
			continue
		}
		if oc >= 0 {
			return chanPerAttempt
		}
		oc = c
	}
	return oc
}

// keepRoute stores the routing answer in scratch as the route memo of
// q's blocked head, reusing the head's stale memo or a pooled one, so
// the head's later attempts in this routing epoch skip the router and
// channel resolution (DESIGN.md §8 has the byte-identity argument).
func (s *vct) keepRoute(q *vcQueue) {
	if q.memo == 0 {
		if n := len(s.freeMemos); n > 0 {
			q.memo = s.freeMemos[n-1] + 1
			s.freeMemos = s.freeMemos[:n-1]
		} else {
			s.memos = append(s.memos, routeMemo{})
			q.memo = int32(len(s.memos))
		}
	}
	m := &s.memos[q.memo-1]
	m.cands = append(m.cands[:0], s.scratch...)
	m.chans = append(m.chans[:0], s.scratchChans...)
	m.epoch = s.routeEpoch
}

// launch picks the best available candidate and starts the transfer.
func (s *vct) launch(sw int, c, vc int32, p *packet, cands []Candidate, chans []int32) bool {
	bestIdx, bestChan, hasAdaptive := s.pick(sw, p, cands, chans)
	if bestIdx < 0 {
		if hasAdaptive && p.blockSince < 0 {
			p.blockSince = s.now
		}
		return false
	}
	p.blockSince = -1
	s.released(p, int32(sw))
	cand := cands[bestIdx]
	if s.inWindow(s.now) {
		s.grantsInWindow++
		if cand.Escape {
			s.escGrantsInWindow++
		}
	}
	if cand.Detour && !p.rerouted {
		p.rerouted = true
		s.reroutedPkts++
	}
	pf := int64(s.cfg.PacketFlits)
	s.inBusy[c] = s.now + pf
	s.outBusy[bestChan] = s.now + pf
	s.credits[bestChan*int32(s.cfg.VCs)+int32(cand.VC)] -= int32(pf)
	if s.inWindow(s.now) {
		s.chanFlits[bestChan] += pf
	}
	s.wheel.schedule(s.now, s.now+1+s.linkDelay[bestChan], wheelEv{
		kind:  evArrive,
		vcIdx: bestChan*int32(s.cfg.VCs) + int32(cand.VC),
		pkt:   p,
	})
	s.returnCredits(c, vc)
	if s.tracing(p) {
		s.trace(p, "GRANT", "from", sw, "to", cand.Next, "vc", cand.VC, "escape", cand.Escape)
	}
	p.st.Step++
	p.st.RtState = cand.NewState
	s.lastProgress = s.now
	return true
}

// pick is launch's availability test, free of side effects: the index
// and output channel of the candidate launch would take now (-1 if
// none), and whether any candidate is adaptive. Adaptive candidates are
// preferred; the escape channel is offered only after the packet has
// been head-blocked for EscapePatienceCycles (or immediately when the
// routing function is purely deterministic and has no adaptive options
// at all).
//
// chans holds each candidate's output channel from resolveChan; entries
// marked chanPerAttempt are resolved here, on every attempt.
func (s *vct) pick(sw int, p *packet, cands []Candidate, chans []int32) (bestIdx int, bestChan int32, hasAdaptive bool) {
	pf := int32(s.cfg.PacketFlits)
	bestIdx = -1
	var bestCredits int32 = -1
	for i, cand := range cands {
		if cand.Escape {
			continue
		}
		hasAdaptive = true
		oc := chans[i]
		if oc == chanPerAttempt {
			oc = s.findOutChan(sw, int(cand.Next))
		}
		if oc < 0 || s.outBusy[oc] > s.now || (s.faultActive && s.chanDead[oc]) {
			continue
		}
		cr := s.credits[oc*int32(s.cfg.VCs)+int32(cand.VC)]
		if cr < pf {
			continue
		}
		if cr > bestCredits {
			bestIdx, bestCredits, bestChan = i, cr, oc
		}
	}
	if bestIdx < 0 {
		// No adaptive grant. Consult the escape only without adaptive
		// options or once patience has run out (counted from this
		// cycle if the head has not been blocked before).
		since := p.blockSince
		if since < 0 {
			since = s.now
		}
		if !hasAdaptive || s.now-since >= s.cfg.EscapePatienceCycles {
			for i, cand := range cands {
				if !cand.Escape {
					continue
				}
				oc := chans[i]
				if oc == chanPerAttempt {
					oc = s.findOutChan(sw, int(cand.Next))
				}
				if oc < 0 || s.outBusy[oc] > s.now || (s.faultActive && s.chanDead[oc]) {
					continue
				}
				cr := s.credits[oc*int32(s.cfg.VCs)+int32(cand.VC)]
				if cr < pf {
					continue
				}
				if cr > bestCredits {
					bestIdx, bestCredits, bestChan = i, cr, oc
				}
			}
		}
	}
	return bestIdx, bestChan, hasAdaptive
}

// returnCredits schedules the freed buffer space of input VC (c, vc) back
// to the channel's sender once the tail has left and the credit has
// crossed the wire.
func (s *vct) returnCredits(c, vc int32) {
	s.wheel.schedule(s.now, s.now+int64(s.cfg.PacketFlits)+s.linkDelay[c], wheelEv{
		kind:  evCredit,
		vcIdx: c*int32(s.cfg.VCs) + vc,
		amt:   int32(s.cfg.PacketFlits),
	})
}

// faultEpoch gives repaired channels fresh flow-control state, turns
// packets caught on dead wires into fault drops, and drops the queues of
// dead switches.
func (s *vct) faultEpoch(revived []int32) {
	vcs := s.cfg.VCs
	for _, c := range revived {
		// Credits restart at full buffer capacity minus whatever survived
		// in the input VCs (packets already buffered downstream keep
		// draining normally).
		for vc := 0; vc < vcs; vc++ {
			q := &s.vcq[c*int32(vcs)+int32(vc)]
			occupied := (int32(len(q.entries)) - q.head) * int32(s.cfg.PacketFlits)
			s.credits[c*int32(vcs)+int32(vc)] = int32(s.cfg.BufFlitsPerVC) - occupied
		}
		s.inBusy[c] = s.now
		s.outBusy[c] = s.now
	}
	s.scrubWheel()
	s.dropDeadQueues()
}

// scrubWheel removes scheduled events riding channels that are now dead:
// arrivals become fault drops (the flits died on the wire) and pending
// credits evaporate (the channel's flow control resets on repair).
func (s *vct) scrubWheel() {
	vcs := s.cfg.VCs
	var victims []*packet
	for i, slot := range s.wheel.slots {
		kept := slot[:0]
		for _, ev := range slot {
			switch ev.kind {
			case evArrive:
				if s.chanDead[int(ev.vcIdx)/vcs] {
					victims = append(victims, ev.pkt)
					continue
				}
			case evCredit:
				if s.chanDead[int(ev.vcIdx)/vcs] {
					continue
				}
			}
			kept = append(kept, ev)
		}
		s.wheel.slots[i] = kept
	}
	// Drop after the scan: retries scheduled by faultDrop append to
	// wheel slots and must not be visited by the filter above.
	for _, p := range victims {
		s.faultDrop(p, "FAULT")
	}
}

// dropDeadQueues drains the input VCs and host queues of dead switches.
func (s *vct) dropDeadQueues() {
	vcs := s.cfg.VCs
	var victims, queued []*packet
	for sw := 0; sw < s.nSw; sw++ {
		if !s.swDead[sw] {
			continue
		}
		for _, c := range s.inChans[sw] {
			for vc := 0; vc < vcs; vc++ {
				vcIdx := c*int32(vcs) + int32(vc)
				for q := &s.vcq[vcIdx]; !q.empty(); {
					victims = append(victims, q.front().pkt)
					s.dequeue(vcIdx)
				}
			}
		}
		for h := sw * s.cfg.HostsPerSwitch; h < (sw+1)*s.cfg.HostsPerSwitch; h++ {
			queued = append(queued, s.hostQ[h]...)
			s.hostQ[h] = nil
			s.hostIdle(int32(h))
		}
	}
	for _, p := range victims {
		s.faultDrop(p, "FAULT")
	}
	for _, p := range queued {
		s.faultDropQueued(p, "FAULT")
	}
}

// breakDeadlock fires at most one abort per cycle: the oldest confirmed
// victim observed by this cycle's allocation pass.
func (s *vct) breakDeadlock() {
	if v := s.rec.victim; v != nil {
		c, vc, sw := s.rec.victimC, s.rec.victimVC, s.rec.victimSw
		s.rec.victim = nil
		if s.rec.tr.CanAbort(s.now) {
			s.abortPacket(v, c, vc, sw)
		}
	}
}

// finalRecovery resolves the abort backlog at the end of a completed
// run: confirmed victims the one-abort-per-cycle pacing had not reached
// yet are torn down now, so the detected == recovered + lost identity
// holds in every returned Result. Confirmed packets are always queue
// heads (only heads run the confirmation pass and a confirmed head can
// leave its queue only by grant, abort, or delivery), so one sweep over
// the head entries suffices.
func (s *vct) finalRecovery() {
	s.rec.victim = nil
	vcs := int32(s.cfg.VCs)
	for sw := 0; sw < s.nSw; sw++ {
		for _, c := range s.inChans[sw] {
			for vc := int32(0); vc < vcs; vc++ {
				q := &s.vcq[c*vcs+vc]
				if !q.empty() && q.front().pkt.deadlocked {
					s.abortPacket(q.front().pkt, c, vc, int32(sw))
				}
			}
		}
	}
}

// abortPacket removes a confirmed victim from its input VC, restoring
// the credits exactly as a normal departure would, and tears it down.
func (s *vct) abortPacket(p *packet, c, vc, sw int32) {
	vcIdx := c*int32(s.cfg.VCs) + vc
	q := &s.vcq[vcIdx]
	if q.empty() || q.front().pkt != p {
		return // the head moved since observation; no longer wedged here
	}
	s.dequeue(vcIdx)
	s.returnCredits(c, vc)
	s.teardown(p, sw, int64(s.cfg.PacketFlits))
}

// auditFlits is a no-op: VCT moves whole packets and keeps no flit
// books.
func (s *vct) auditFlits() {}
