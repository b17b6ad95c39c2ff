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

	// Awake heads and live inputs (DESIGN.md §8), kept so that allocate
	// visits only inputs that can act. chanRoutable counts, per input
	// channel, the VC queues whose head has cleared the header pipeline
	// and is awake; swLive counts, per switch, the input channels with
	// such a head whose port is free. A head still in the pipeline waits
	// in pipe, filed under its routableAt. A head asleep until a finite
	// cycle waits in dozing, a wheel shorter than the longest sleep,
	// filed under that cycle. The two share their links: a queue is in
	// at most one of them.
	chanRoutable []int32
	swLive       []int32
	pipe         calendar
	dozing       calendar
	// scanned is the cycle of the last completed allocation pass.
	scanned int64

	// busy files the input ports reserved by a grant (entry c) and the
	// host NICs streaming a packet (entry nChan+h) under the cycle their
	// reservation ends. held marks the reserved ports, one bit per
	// channel.
	busy calendar
	held []uint64
	// blocked marks the queued hosts that found no injection VC with a
	// packet's worth of credits, one bit per host. They leave hostWork
	// until a credit returns on their injection channel.
	blocked []uint64

	park parking

	// Route reuse: a head whose grant failed keeps its routing answer in
	// a pooled memo until it leaves its queue or routeEpoch advances
	// (fault masks, router tables or the recovery escape changed).
	memos     []routeMemo
	freeMemos []int32

	scratch      []Candidate // reusable candidate buffer
	scratchChans []int32     // resolved channels of scratch
}

// parking is the record of blocked heads whose grant cannot succeed
// before something they wait on changes (DESIGN.md §8). wake[vcIdx] is
// the first cycle the head of input VC vcIdx may be granted again; 0
// means it is not parked. A head parked for credits on inter-switch
// (channel, VC) ci is in the wait set of ci.
type parking struct {
	wake []int64
	waitSets
}

// newVCT attaches VCT flow control to the fabric s.
func newVCT(s Sim) *vct {
	vcs, pf := s.cfg.VCs, s.cfg.PacketFlits
	waits := shapeWaitSets(&s)
	queues, busy := s.nChan*vcs, s.nChan+s.hosts
	// The fixed-size tables share one allocation per element type. The
	// dozing wheel is longer than a port stays busy.
	i32 := make([]int32, 2*s.nChan+s.nSw+queues+calendarSlots(s.cfg.PipelineCycles)+2*calendarSlots(int64(pf))+busy)
	u64 := make([]uint64, (s.nChan+63)/64+len(s.hostWork)+waits.sets*waits.words)
	links := carve(&i32, queues)
	v := &vct{
		Sim:          s,
		vcq:          make([]vcQueue, queues),
		hostBusy:     make([]int64, s.hosts),
		rrIn:         make([]int, s.nSw),
		rrVC:         make([]int, s.nChan),
		chanRoutable: carve(&i32, s.nChan),
		swLive:       carve(&i32, s.nSw),
		pipe:         calendar{carve(&i32, calendarSlots(s.cfg.PipelineCycles)), links},
		dozing:       calendar{carve(&i32, calendarSlots(int64(pf))), links},
		scanned:      -1,
		busy:         calendar{carve(&i32, calendarSlots(int64(pf))), carve(&i32, busy)},
		held:         carve(&u64, (s.nChan+63)/64),
		blocked:      carve(&u64, len(s.hostWork)),
		park:         parking{wake: make([]int64, queues), waitSets: waits},
	}
	v.park.carve(&v.Sim, &u64, &i32)
	v.fc = v
	return v
}

// carve returns the next n elements of *buf and advances it past them.
func carve[T any](buf *[]T, n int) []T {
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

// vcEntry is a packet queued in an input VC buffer.
type vcEntry struct {
	pkt        *packet
	routableAt int64 // header arrival + pipeline delay
}

// vcQueue is a FIFO of packets sharing one input VC buffer. memo is the
// route memo of the blocked head packet (index+1 into vct.memos, 0 =
// none); see keepRoute. routable marks a head that has cleared the
// header pipeline. asleep marks a routable head left out of
// chanRoutable until sleepEnd; see doze.
type vcQueue struct {
	entries  []vcEntry
	head     int32
	memo     int32
	routable bool
	asleep   bool
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
// and its parking and keeping the counts. The head is awake or still in
// the pipeline: every way a head leaves its queue runs on an awake head
// (DESIGN.md §8).
func (s *vct) dequeue(vcIdx int32) {
	q := &s.vcq[vcIdx]
	if q.routable {
		q.routable = false
		s.countRoutable(vcIdx/int32(s.cfg.VCs), -1)
	} else {
		s.pipe.unlink(vcIdx, q.front().routableAt)
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
	if at := s.vcq[vcIdx].front().routableAt; at > s.now {
		s.pipe.file(vcIdx, at)
	} else {
		s.vcq[vcIdx].routable = true
		s.countRoutable(vcIdx/int32(s.cfg.VCs), 1)
	}
}

// activate counts the heads whose header clears the pipeline this cycle
// and wakes the heads whose sleep ends this cycle.
func (s *vct) activate() {
	piped := s.pipe.take(s.now)
	for i := s.pipe.pop(&piped); i >= 0; i = s.pipe.pop(&piped) {
		s.vcq[i].routable = true
		s.countRoutable(i/int32(s.cfg.VCs), 1)
	}
	dozing := s.dozing.take(s.now)
	for i := s.dozing.pop(&dozing); i >= 0; i = s.dozing.pop(&dozing) {
		if end := s.sleepEnd(i); end > s.now {
			s.dozing.file(i, end) // a later round of the wheel
		} else {
			s.rouse(i)
		}
	}
}

// countRoutable adds d to the awake routable heads of input channel c
// and keeps its switch's live inputs. A channel whose heads were all
// asleep settles them before it rejoins the scan.
func (s *vct) countRoutable(c, d int32) {
	n := s.chanRoutable[c]
	if n == 0 {
		s.settle(c)
	}
	s.chanRoutable[c] = n + d
	if (n == 0) != (n+d == 0) && !s.portHeld(c) {
		s.swLive[s.chanDst[c]] += d
	}
}

// doze puts the awake head of input VC vcIdx to sleep after a visit
// that left it parked, unless it is due back next cycle.
func (s *vct) doze(vcIdx int32) {
	if s.park.wake[vcIdx] <= s.now+1 {
		return
	}
	end := s.sleepEnd(vcIdx)
	if end <= s.now+1 {
		return
	}
	q := &s.vcq[vcIdx]
	q.asleep = true
	s.countRoutable(vcIdx/int32(s.cfg.VCs), -1)
	if end != math.MaxInt64 {
		s.dozing.file(vcIdx, end)
	}
}

// sleepEnd is the first cycle a visit to the parked head of input VC
// vcIdx could do more than raise the HOL-wait maximum: its park wake,
// and the cycles the HOL monitor, the fault timeout and the stall
// threshold would first act on it (math.MaxInt64: none). It stays put
// while the head sleeps: nothing rewrites an asleep head's park wake
// before waking it, and faults become active only at a routing epoch,
// which wakes every head.
func (s *vct) sleepEnd(vcIdx int32) int64 {
	at := s.vcq[vcIdx].front().routableAt
	end := s.park.wake[vcIdx]
	if s.mon.MaxHOLWaitCycles > 0 {
		end = min(end, at+s.mon.MaxHOLWaitCycles+1)
	}
	if s.faultActive {
		end = min(end, at+s.faultTimeout+1)
	}
	if s.rec != nil {
		end = min(end, at+s.rec.cfg.StallThresholdCycles)
	}
	return end
}

// wake ends the sleep of the head of input VC vcIdx early, if it is
// asleep, before its park wake changes: a credit it waits on returned.
func (s *vct) wake(vcIdx int32) {
	if s.vcq[vcIdx].asleep {
		if end := s.sleepEnd(vcIdx); end != math.MaxInt64 {
			s.dozing.unlink(vcIdx, end)
		}
		s.rouse(vcIdx)
	}
}

// rouse counts an asleep head, already out of the dozing wheel, as
// awake again.
func (s *vct) rouse(vcIdx int32) {
	s.countRoutable(vcIdx/int32(s.cfg.VCs), 1)
	s.vcq[vcIdx].asleep = false
}

// settle raises the HOL-wait maximum by the visits the scan skipped at
// input channel c while all its routable heads slept. Such a channel
// grants nothing, so its inBusy stamp stays put, and a scan over every
// head would have visited each of them at every cycle from that stamp
// on; the last such visit, in the last completed scan, waited longest.
func (s *vct) settle(c int32) {
	if s.inBusy[c] > s.scanned {
		return
	}
	vcs := int32(s.cfg.VCs)
	for vcIdx := c * vcs; vcIdx < (c+1)*vcs; vcIdx++ {
		if q := &s.vcq[vcIdx]; q.asleep {
			s.maxHOLWait = max(s.maxHOLWait, s.scanned-q.front().routableAt)
		}
	}
}

// finish settles the channels whose heads all sleep as the run ends.
func (s *vct) finish() {
	for c, n := range s.chanRoutable {
		if n == 0 {
			s.settle(int32(c))
		}
	}
}

// portHeld reports whether input port c is reserved, in the busy calendar.
func (s *vct) portHeld(c int32) bool { return s.held[c>>6]&(1<<(c&63)) != 0 }

// holdPort reserves input port c while a granted packet streams out of
// it. Every inBusy write goes through holdPort or freePort, which keep
// the busy calendar and the live inputs.
func (s *vct) holdPort(c int32) {
	s.inBusy[c] = s.now + int64(s.cfg.PacketFlits)
	s.busy.file(c, s.inBusy[c])
	s.held[c>>6] |= 1 << (c & 63)
	if s.chanRoutable[c] > 0 {
		s.swLive[s.chanDst[c]]--
	}
}

// freePort ends the reservation of input port c now (a repair resets
// the port).
func (s *vct) freePort(c int32) {
	if s.portHeld(c) {
		s.busy.unlink(c, s.inBusy[c])
		s.unhold(c)
	}
	s.inBusy[c] = s.now
}

// unhold returns the reserved input port c to its switch's live inputs.
func (s *vct) unhold(c int32) {
	s.held[c>>6] &^= 1 << (c & 63)
	if s.chanRoutable[c] > 0 {
		s.swLive[s.chanDst[c]]++
	}
}

// release returns the input ports whose reservation ends this cycle to
// their switches' live inputs, and the hosts whose NIC finished
// streaming, if they have a packet queued, to hostWork.
func (s *vct) release() {
	ended := s.busy.take(s.now)
	for e := s.busy.pop(&ended); e >= 0; e = s.busy.pop(&ended) {
		if e < int32(s.nChan) {
			s.unhold(e)
		} else if h := e - int32(s.nChan); len(s.hostQ[h]) > 0 {
			s.hostWork[h>>6] |= 1 << (h & 63)
		}
	}
}

// credit returns credits to (channel, VC) vcIdx and wakes what waits on
// them: the heads parked on an inter-switch pair, or the host of an
// injection channel that had no VC to inject into.
func (s *vct) credit(vcIdx, amt int32) {
	s.credits[vcIdx] += amt
	if int(vcIdx) < s.park.sets {
		s.wakeCreditWaiters(vcIdx)
		return
	}
	h := (vcIdx - int32(s.park.sets)) / int32(s.cfg.VCs)
	if bit := uint64(1) << (h & 63); s.blocked[h>>6]&bit != 0 {
		s.blocked[h>>6] &^= bit
		s.hostWork[h>>6] |= bit
	}
}

// wakeCreditWaiters wakes the heads parked for credits on inter-switch
// (channel, VC) ci, which just got credits back.
func (s *vct) wakeCreditWaiters(ci int32) {
	for vcIdx := s.popWaiter(&s.park.waitSets, ci); vcIdx >= 0; vcIdx = s.popWaiter(&s.park.waitSets, ci) {
		s.wake(vcIdx)
		s.park.wake[vcIdx] = 0
	}
}

// wakeAll wakes every parked and asleep head and every blocked host at
// a routing epoch, before the fault epoch drops the queues of dead
// switches: route memos and the death masks heads were parked on are
// stale, and a repair resets credits.
func (s *vct) wakeAll() {
	clear(s.park.wake)
	clear(s.dozing.slots)
	for i := range s.vcq {
		if s.vcq[i].asleep {
			s.dozing.next[i] = 0
			s.rouse(int32(i))
		}
	}
	for w, b := range s.blocked {
		s.hostWork[w] |= b
	}
	clear(s.blocked)
}

// driveHosts starts streaming the head packet of each host queue into
// its switch when the NIC is idle and a VC has a packet's worth of
// credits. It visits the hosts in hostWork, in host order. A host that
// cannot inject leaves hostWork: release brings it back when its NIC
// finishes streaming, credit when a credit returns on its injection
// channel, and queueHost and wakeAll in any case.
func (s *vct) driveHosts() {
	s.release()
	if s.rec != nil && s.rec.draining {
		return // drain epoch: no new packets enter the network
	}
	for hi := nextBit(s.hostWork, 0); hi >= 0; hi = nextBit(s.hostWork, hi+1) {
		h := int(hi)
		if s.faultActive && s.swDead[h/s.cfg.HostsPerSwitch] {
			continue // hosts of a dead switch are offline
		}
		if s.hostBusy[h] > s.now {
			s.hostIdle(hi)
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
			s.hostIdle(hi)
			s.blocked[hi>>6] |= 1 << (hi & 63)
			continue
		}
		p := s.popHost(h)
		s.hostIdle(hi)
		s.inNetwork++
		s.hostBusy[h] = s.now + int64(s.cfg.PacketFlits)
		s.busy.file(int32(s.nChan)+hi, s.hostBusy[h])
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
// Switches with no live input and input channels with no awake head or
// a reserved port are skipped: a visit there grants nothing, moves no
// round-robin pointer and has no other side effect than raising the
// HOL-wait maximum, which settle makes up, so the skip leaves every
// cycle exactly as a scan of every head would.
func (s *vct) allocate() {
	s.activate()
	for sw := 0; sw < s.nSw; sw++ {
		if s.swLive[sw] == 0 || (s.faultActive && s.swDead[sw]) {
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
	s.scanned = s.now
}

// tryInput attempts to grant the head packet of one VC of input channel c
// at switch sw. Returns true if a packet was launched. An asleep head
// keeps its visit, which only raises the HOL-wait maximum; an awake
// parked head skips only its grant attempt, which could not succeed.
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
		if q.asleep {
			continue // no check below can act before it wakes (doze)
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
		s.doze(vcIdx)
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
		s.holdPort(c)
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
	for i, cand := range m.cands {
		oc := m.chans[i]
		if (cand.Escape && !patienceUp) || oc < 0 || (s.faultActive && s.chanDead[oc]) {
			continue // not considered, or dead until the next routing epoch
		}
		ci := oc*vcs + int32(cand.VC)
		if s.credits[ci] < pf {
			s.park.add(ci, vcIdx, vcs)
			continue
		}
		wake = min(wake, s.outBusy[oc])
	}
	s.park.wake[vcIdx] = wake
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
	s.holdPort(c)
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
		s.freePort(c)
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
