package netsim

import "math"

// worm is wormhole flow control (NewWormSim): flit-granular credits,
// one worm per (channel, VC) slot at a time, and each port moving at
// most one flit per cycle.
type worm struct {
	Sim

	// Per (channel, VC) slot state. asleep marks a header that cleared
	// the pipeline, failed its route and sleeps out of the waiting counts
	// (doze).
	slotPkt   []*packet
	buffered  []int32
	readyAt   []int64 // header arrival + pipeline; neverReady until header
	routed    []bool
	isEject   []bool
	asleep    []bool
	outSlot   []int32 // allocated downstream slot (when routed, !isEject)
	outChan   []int32
	forwarded []int32

	// Host injection state.
	hostCur      []*packet
	hostSlot     []int32 // allocated injection slot
	hostInjected []int32

	rrIn []int

	// Occupancy, kept by claim, routeSlot, arrive, moveFlit, freeSlot
	// and the sleeps so that the per-cycle loops visit only slots with
	// work: per switch and per input channel, the waiting headers, which
	// have cleared the pipeline, are not routed and are awake (swWait,
	// chanWait), and routed slots holding flits (swMove, chanMove); per
	// channel, claimed slots (chanClaim), with the set of channels holding
	// one as a bitset (claimedChans).
	swWait       []int32
	chanWait     []int32
	swMove       []int32
	chanMove     []int32
	chanClaim    []int32
	claimedChans []uint64

	// A header still in the pipeline waits in pipe, filed under its
	// readyAt; an asleep header with a finite sleepEnd waits in dozing,
	// filed under that cycle. The two share their links. waits holds, per
	// inter-switch slot, the asleep headers a candidate of which it is.
	// scanned is the cycle of the last completed route pass.
	pipe, dozing calendar
	waits        waitSets
	scanned      int64

	// The stall books, with recovery armed: from the claim of its
	// injection slot until it leaves, each worm holds an id and is
	// filed in stall under its stall due, lastAdvance +
	// StallThresholdCycles, or is counted in stalled once it came due
	// without advancing (stallDue -1). The deadlock sweep runs only
	// while stalled > 0. A worm in the network holds a slot, so there
	// are as many ids as slots; freeIDs holds those not taken. stall is
	// as long as dozing, so a worm comes up once a round until its due.
	stall     calendar
	stallWorm []*packet
	stallDue  []int64
	freeIDs   []int32
	stalled   int32

	// chainBuf holds the slots of one worm (chain); chainMark marks
	// them while abortWorm scrubs the wheel.
	chainMark []bool
	chainBuf  []int32

	scratch []Candidate
}

const neverReady = int64(1) << 62

// newWorm attaches wormhole flow control to the fabric s.
func newWorm(s Sim) *worm {
	slots := s.nChan * s.cfg.VCs
	pipe, doze := calendarSlots(s.cfg.PipelineCycles), calendarSlots(int64(s.cfg.PacketFlits))
	waits := shapeWaitSets(&s)
	// The fixed-size tables share one allocation per element type.
	ptrs := make([]*packet, 2*slots+s.hosts)
	i32 := make([]int32, 7*slots+2*s.hosts+2*s.nSw+4*s.nChan+pipe+2*doze)
	i64 := make([]int64, 2*slots)
	u64 := make([]uint64, (s.nChan+63)/64+waits.sets*waits.words)
	flags := make([]bool, 4*slots)
	links := carve(&i32, slots)
	w := &worm{
		Sim:          s,
		slotPkt:      carve(&ptrs, slots),
		buffered:     carve(&i32, slots),
		readyAt:      carve(&i64, slots),
		routed:       carve(&flags, slots),
		isEject:      carve(&flags, slots),
		asleep:       carve(&flags, slots),
		outSlot:      carve(&i32, slots),
		outChan:      carve(&i32, slots),
		forwarded:    carve(&i32, slots),
		hostCur:      carve(&ptrs, s.hosts),
		hostSlot:     carve(&i32, s.hosts),
		hostInjected: carve(&i32, s.hosts),
		rrIn:         make([]int, s.nSw),
		swWait:       carve(&i32, s.nSw),
		chanWait:     carve(&i32, s.nChan),
		swMove:       carve(&i32, s.nSw),
		chanMove:     carve(&i32, s.nChan),
		chanClaim:    carve(&i32, s.nChan),
		claimedChans: carve(&u64, (s.nChan+63)/64),
		pipe:         calendar{carve(&i32, pipe), links},
		dozing:       calendar{carve(&i32, doze), links},
		waits:        waits,
		scanned:      -1,
		stall:        calendar{carve(&i32, doze), carve(&i32, slots)},
		stallWorm:    carve(&ptrs, slots),
		stallDue:     carve(&i64, slots),
		freeIDs:      carve(&i32, slots),
		chainMark:    carve(&flags, slots),
	}
	w.waits.carve(&w.Sim, &u64, &i32)
	for i := range w.readyAt {
		w.readyAt[i] = neverReady
		w.freeIDs[i] = int32(i)
	}
	w.fc = w
	return w
}

// slot indexes the (channel, VC) slot state.
func (s *worm) slot(c int32, vc int8) int32 { return c*int32(s.cfg.VCs) + int32(vc) }

// claim gives a free slot to worm p; its header will wait there for a
// route once it has arrived and cleared the pipeline.
func (s *worm) claim(slot int32, p *packet) {
	s.slotPkt[slot] = p
	c := slot / int32(s.cfg.VCs)
	if s.chanClaim[c] == 0 {
		s.claimedChans[c>>6] |= 1 << (c & 63)
	}
	s.chanClaim[c]++
}

// routeSlot marks a waiting header routed: its slot stops waiting and,
// holding flits, becomes movable.
func (s *worm) routeSlot(slot int32) {
	s.routed[slot] = true
	s.waiting(slot, -1)
	if s.buffered[slot] > 0 {
		s.movable(slot, 1)
	}
}

// waiting adjusts the waiting counts of slot's channel and switch by d.
func (s *worm) waiting(slot, d int32) {
	c := slot / int32(s.cfg.VCs)
	s.chanWait[c] += d
	s.swWait[s.chanDst[c]] += d
}

// movable adjusts the movable counts of slot's channel and switch by d.
func (s *worm) movable(slot, d int32) {
	c := slot / int32(s.cfg.VCs)
	s.chanMove[c] += d
	s.swMove[s.chanDst[c]] += d
}

// freeSlot releases a claimed slot: after its tail left, or with
// buffered flits discarded when abortWorm tears its worm down, which
// also takes an unrouted header out of the pipe or the waiting counts
// (an asleep one settles first). The headers asleep on the slot wake.
func (s *worm) freeSlot(slot int32) {
	if !s.routed[slot] {
		switch at := s.readyAt[slot]; {
		case at == neverReady:
		case at > s.scanned:
			s.pipe.unlink(slot, at)
		default:
			s.wake(slot)
			s.waiting(slot, -1)
		}
	} else if s.buffered[slot] > 0 {
		s.movable(slot, -1)
	}
	if int(slot) < s.waits.sets {
		for h := s.popWaiter(&s.waits, slot); h >= 0; h = s.popWaiter(&s.waits, slot) {
			s.wake(h)
		}
	}
	c := slot / int32(s.cfg.VCs)
	if s.chanClaim[c]--; s.chanClaim[c] == 0 {
		s.claimedChans[c>>6] &^= 1 << (c & 63)
	}
	s.slotPkt[slot] = nil
	s.buffered[slot] = 0
	s.routed[slot] = false
	s.isEject[slot] = false
	s.forwarded[slot] = 0
	s.readyAt[slot] = neverReady
}

// arrive buffers one flit; a head flit starts the router pipeline.
func (s *worm) arrive(ev wheelEv) {
	slot := ev.vcIdx
	if s.buffered[slot] == 0 && s.routed[slot] {
		s.movable(slot, 1)
	}
	s.buffered[slot]++
	if ev.amt == 1 { // head flit
		s.readyAt[slot] = s.now + s.cfg.PipelineCycles
		s.pipe.file(slot, s.readyAt[slot])
	}
}

// activate counts the headers that clear the pipeline this cycle and
// wakes the headers whose sleep ends this cycle.
func (s *worm) activate() {
	ready := s.pipe.take(s.now)
	for slot := s.pipe.pop(&ready); slot >= 0; slot = s.pipe.pop(&ready) {
		s.waiting(slot, 1)
	}
	due := s.dozing.take(s.now)
	for slot := s.dozing.pop(&due); slot >= 0; slot = s.dozing.pop(&due) {
		if end := s.sleepEnd(slot); end > s.now {
			s.dozing.file(slot, end) // a later round of the wheel
		} else {
			s.rouse(slot)
		}
	}
}

// doze puts the header in slot at switch sw to sleep after a failed
// route visit, whose candidates are in scratch; escapes tells whether
// the visit considered the escape candidates. The header joins the wait
// set of the downstream slot of every considered candidate on a live
// channel: it cannot route before one of them frees, a timed wake
// (sleepEnd) or a routing epoch. It stays awake if it is due back next
// cycle, or if a considered candidate's channel is picked per visit
// (the wait bits set by then only cost a visit when they fire).
func (s *worm) doze(slot int32, p *packet, sw int, escapes bool) {
	end := s.sleepEnd(slot)
	if end <= s.now+1 {
		return
	}
	vcs := int32(s.cfg.VCs)
	for _, cand := range s.scratch {
		if cand.Escape && !escapes || !cand.Escape && p.escLocked {
			continue
		}
		oc := s.resolveChan(sw, cand)
		if oc == chanPerAttempt {
			return
		}
		if oc >= 0 && !(s.faultActive && s.chanDead[oc]) {
			s.waits.add(oc*vcs+int32(cand.VC), slot, vcs)
		}
	}
	s.asleep[slot] = true
	s.waiting(slot, -1)
	if end != math.MaxInt64 {
		s.dozing.file(slot, end)
	}
}

// sleepEnd is the first cycle a route visit to the header in slot, which
// is asleep or about to be, could do more than raise the HOL-wait
// maximum: the end of its escape patience while that runs, and the cycle
// the HOL monitor would trip on it (math.MaxInt64: none). It stays put
// while the header sleeps: blockSince changes only when the header
// routes, and a patience end the header slept from stays ahead of now
// until it wakes then.
func (s *worm) sleepEnd(slot int32) int64 {
	end := int64(math.MaxInt64)
	if p := s.slotPkt[slot]; p.blockSince >= 0 {
		if up := p.blockSince + s.cfg.EscapePatienceCycles; up >= s.now {
			end = up
		}
	}
	if s.mon.MaxHOLWaitCycles > 0 {
		end = min(end, s.readyAt[slot]+s.mon.MaxHOLWaitCycles+1)
	}
	return end
}

// wake ends the sleep of the header in slot early, if it is asleep.
func (s *worm) wake(slot int32) {
	if s.asleep[slot] {
		if end := s.sleepEnd(slot); end != math.MaxInt64 {
			s.dozing.unlink(slot, end)
		}
		s.rouse(slot)
	}
}

// rouse counts an asleep header, already out of the dozing calendar, as
// waiting again, after settling the route visits it skipped.
func (s *worm) rouse(slot int32) {
	s.settle(slot)
	s.asleep[slot] = false
	s.waiting(slot, 1)
}

// settle raises the HOL-wait maximum by the route visits an asleep
// header skipped. A scan over every header would have visited it in
// every pass, and the last completed one waited longest.
func (s *worm) settle(slot int32) {
	s.maxHOLWait = max(s.maxHOLWait, s.scanned-s.readyAt[slot])
}

// driveHosts claims injection VCs and streams queued flits, one per host
// per cycle. It visits the hosts with a queued packet or a worm still
// streaming in, in host order.
func (s *worm) driveHosts() {
	vcs := s.cfg.VCs
	for hi := nextBit(s.hostWork, 0); hi >= 0; hi = nextBit(s.hostWork, hi+1) {
		h := int(hi)
		// Claim an injection VC for the next packet (paused while a drain
		// epoch quiesces the network; worms mid-injection keep streaming).
		if s.hostCur[h] == nil && len(s.hostQ[h]) > 0 && (s.rec == nil || !s.rec.draining) {
			c := int32(2*s.g.M() + h)
			for vc := 0; vc < vcs; vc++ {
				slot := s.slot(c, int8(vc))
				if s.slotPkt[slot] == nil {
					p := s.popHost(h)
					s.hostCur[h] = p
					s.hostSlot[h] = slot
					s.hostInjected[h] = 0
					s.claim(slot, p)
					s.inNetwork++
					p.lastAdvance = s.now
					if s.rec != nil {
						s.enter(p)
					}
					break
				}
			}
		}
		// Inject one flit per cycle while credits allow.
		if p := s.hostCur[h]; p != nil {
			slot := s.hostSlot[h]
			if s.credits[slot] > 0 {
				s.credits[slot]--
				s.hostInjected[h]++
				s.flitsInjected++
				p.injected++
				p.lastAdvance = s.now
				var head int32
				if s.hostInjected[h] == 1 {
					head = 1
				}
				s.wheel.schedule(s.now, s.now+1+s.linkDelay[int(slot)/s.cfg.VCs], wheelEv{
					kind:  evArrive,
					vcIdx: slot,
					amt:   head,
				})
				s.lastProgress = s.now
				if s.hostInjected[h] == int32(s.cfg.PacketFlits) {
					s.hostCur[h] = nil // tail sent; slot frees downstream
				}
			}
		}
		if s.hostCur[h] == nil && len(s.hostQ[h]) == 0 {
			s.hostIdle(hi)
		}
	}
}

// allocate routes headers that cleared the pipeline, then moves flits.
func (s *worm) allocate() {
	s.route()
	s.forward()
}

// route performs VC allocation: headers that have cleared the pipeline
// claim a downstream VC (or the ejection port). Switches and channels
// with no waiting header are skipped, and a header whose visit fails
// sleeps (doze).
func (s *worm) route() {
	s.activate()
	vcs := s.cfg.VCs
	for sw := 0; sw < s.nSw; sw++ {
		if s.swWait[sw] == 0 {
			continue
		}
		for _, c := range s.inChans[sw] {
			if s.chanWait[c] == 0 {
				continue
			}
			for vc := 0; vc < vcs; vc++ {
				slot := s.slot(c, int8(vc))
				p := s.slotPkt[slot]
				if p == nil || s.routed[slot] || s.readyAt[slot] > s.now || s.asleep[slot] {
					continue
				}
				if wait := s.now - s.readyAt[slot]; wait > s.maxHOLWait {
					s.maxHOLWait = wait
				}
				if s.mon.MaxHOLWaitCycles > 0 && s.now-s.readyAt[slot] > s.mon.MaxHOLWaitCycles {
					// This engine has no drop/retry transport, so a worm
					// starved of a route (deadlock, or faults that cut its
					// destination) is caught here rather than draining.
					s.violate(MonitorHOLWait, p.st.PktID,
						"headered worm waited %d cycles for a route (bound %d) at switch %d channel %d",
						s.now-s.readyAt[slot], s.mon.MaxHOLWaitCycles, sw, c)
				}
				if p.st.DstSw == int32(sw) {
					s.routeSlot(slot)
					s.isEject[slot] = true
					s.lastProgress = s.now
					p.lastAdvance = s.now
					s.released(p, int32(sw))
					continue
				}
				if s.mon.HopTTL > 0 && !p.rerouted && !p.recovering && p.st.Step >= s.mon.HopTTL {
					s.violate(MonitorHopTTL, p.st.PktID, "worm exceeded the %d-hop route bound (src sw %d, dst sw %d, at sw %d)",
						s.mon.HopTTL, p.st.SrcSw, p.st.DstSw, sw)
					continue
				}
				s.candidates(p, sw)
				best, oc := s.pick(sw, p.escLocked)
				escapes := p.escLocked
				if best < 0 && !p.escLocked {
					// The escapes are considered once the adaptive
					// candidates have blocked the header for the escape
					// patience, or at once when it has none.
					escapes = true
					for _, cand := range s.scratch {
						if !cand.Escape {
							if p.blockSince < 0 {
								p.blockSince = s.now
							}
							escapes = s.now-p.blockSince >= s.cfg.EscapePatienceCycles
							break
						}
					}
					if escapes {
						best, oc = s.pick(sw, true)
					}
				}
				if best < 0 {
					s.doze(slot, p, sw, escapes)
					continue
				}
				cand := s.scratch[best]
				p.blockSince = -1
				p.lastAdvance = s.now
				s.released(p, int32(sw))
				s.routeSlot(slot)
				s.outSlot[slot] = s.slot(oc, cand.VC)
				s.outChan[slot] = oc
				s.claim(s.outSlot[slot], p) // claim downstream VC
				p.st.Step++
				p.st.RtState = cand.NewState
				if cand.Escape {
					p.escLocked = true
				}
				if cand.Detour && !p.rerouted {
					p.rerouted = true
					s.reroutedPkts++
				}
				s.lastProgress = s.now
			}
		}
	}
	s.scanned = s.now
}

// candidates fills scratch with the candidates of worm p's header at
// switch sw.
func (s *worm) candidates(p *packet, sw int) {
	if p.recovering {
		// A recovery-reinjected worm rides the up*/down* escape network
		// exclusively (it is escLocked from rebirth).
		s.scratch = s.rec.escapeCandidates(p.st, sw, s.scratch[:0])
	} else {
		s.scratch = s.rt.Candidates(p.st, sw, s.scratch[:0])
	}
}

// pick is route's candidate test, free of side effects. Among the
// candidates in scratch that are escapes or not, as escapes says, it
// returns the index of the one route would take (-1: none) and its
// channel: of those whose downstream VC slot on a live channel is free,
// the first with the most credits. Credits rank the free slots but
// never refuse one.
func (s *worm) pick(sw int, escapes bool) (best int, oc int32) {
	best = -1
	var bestCr int32 = -1
	for i, cand := range s.scratch {
		if cand.Escape != escapes {
			continue
		}
		c := s.chanFor(sw, cand)
		if c < 0 || (s.faultActive && s.chanDead[c]) {
			continue
		}
		oslot := s.slot(c, cand.VC)
		if s.slotPkt[oslot] == nil && s.credits[oslot] > bestCr {
			best, oc, bestCr = i, c, s.credits[oslot]
		}
	}
	return best, oc
}

// forward moves flits: one per input port and one per output port per
// cycle. Through traffic goes first, round-robin from rrIn, injection
// channels after. Switches and channels with no movable slot are
// skipped: a visit there moves nothing, so rrIn does not move either.
func (s *worm) forward() {
	for sw := 0; sw < s.nSw; sw++ {
		if s.swMove[sw] == 0 {
			continue
		}
		ins := s.inChans[sw]
		thru := ins[:s.thruCount[sw]]
		moved := false
		if n := len(thru); n > 0 {
			for k, i := 0, s.rrIn[sw]%n; k < n; k++ {
				c := thru[i]
				if i++; i == n {
					i = 0
				}
				if s.chanMove[c] == 0 || s.inBusy[c] > s.now {
					continue
				}
				if s.forwardInput(c) {
					moved = true
				}
			}
		}
		for _, c := range ins[s.thruCount[sw]:] {
			if s.chanMove[c] == 0 || s.inBusy[c] > s.now {
				continue
			}
			if s.forwardInput(c) {
				moved = true
			}
		}
		if moved {
			s.rrIn[sw]++
		}
	}
}

// forwardInput moves at most one flit out of input channel c, from its
// lowest movable VC whose output is free. Returns true if a flit moved.
func (s *worm) forwardInput(c int32) bool {
	pf := int32(s.cfg.PacketFlits)
	for vc := 0; vc < s.cfg.VCs; vc++ {
		slot := s.slot(c, int8(vc))
		p := s.slotPkt[slot]
		if p == nil || !s.routed[slot] || s.buffered[slot] == 0 {
			continue
		}
		if s.isEject[slot] {
			host := int(p.dstHost)
			if s.ejBusy[host] > s.now {
				continue
			}
			s.ejBusy[host] = s.now + 1
			s.moveFlit(c, slot, p, pf, true, -1, -1)
			return true
		}
		oc := s.outChan[slot]
		oslot := s.outSlot[slot]
		if s.outBusy[oc] > s.now || s.credits[oslot] == 0 {
			continue
		}
		s.outBusy[oc] = s.now + 1
		s.moveFlit(c, slot, p, pf, false, oc, oslot)
		return true
	}
	return false
}

// moveFlit transfers one flit out of slot, handling tail bookkeeping.
func (s *worm) moveFlit(c, slot int32, p *packet, pf int32, eject bool, oc, oslot int32) {
	s.inBusy[c] = s.now + 1
	if s.buffered[slot]--; s.buffered[slot] == 0 {
		s.movable(slot, -1)
	}
	s.forwarded[slot]++
	p.lastAdvance = s.now
	s.released(p, s.chanDst[c])
	// Return the freed buffer space to this slot's sender over its wire.
	s.wheel.schedule(s.now, s.now+1+s.linkDelay[c], wheelEv{kind: evCredit, vcIdx: slot, amt: 1})
	if eject {
		s.flitsEjected++
		if s.forwarded[slot] == pf {
			s.wheel.schedule(s.now, s.now+1+s.cfg.LinkDelayCycles, wheelEv{kind: evDeliver, pkt: p})
			s.freeSlot(slot)
			s.leave(p)
		}
		s.lastProgress = s.now
		return
	}
	if s.inWindow(s.now) {
		s.chanFlits[oc]++
	}
	s.credits[oslot]--
	var head int32
	if s.forwarded[slot] == 1 {
		head = 1
	}
	s.wheel.schedule(s.now, s.now+1+s.linkDelay[oc], wheelEv{
		kind:  evArrive,
		vcIdx: oslot,
		amt:   head,
	})
	if s.forwarded[slot] == pf {
		s.freeSlot(slot)
	}
	s.lastProgress = s.now
}

// faultEpoch is a no-op: under fail-stop admission worms already in the
// network keep draining over dying links, and flow control is never
// disturbed, so a repair needs no reset.
func (s *worm) faultEpoch([]int32) {}

// credit returns flit credits to a slot's sender.
func (s *worm) credit(vcIdx, amt int32) { s.credits[vcIdx] += amt }

// wakeAll wakes every asleep header at a routing epoch: candidates and
// the death masks they were put to sleep on are stale.
func (s *worm) wakeAll() {
	clear(s.dozing.slots)
	vcs := int32(s.cfg.VCs)
	for c := nextBit(s.claimedChans, 0); c >= 0; c = nextBit(s.claimedChans, c+1) {
		for slot := c * vcs; slot < (c+1)*vcs; slot++ {
			if s.asleep[slot] {
				s.dozing.next[slot] = 0
				s.rouse(slot)
			}
		}
	}
}

// finish settles the headers still asleep as the run ends.
func (s *worm) finish() {
	for slot, asleep := range s.asleep {
		if asleep {
			s.settle(int32(slot))
		}
	}
}

// enter gives worm p, which just claimed its injection slot, an id and
// files it in the stall books.
func (s *worm) enter(p *packet) {
	n := len(s.freeIDs) - 1
	id := s.freeIDs[n]
	s.freeIDs = s.freeIDs[:n]
	s.stallWorm[id], p.wid = p, id+1
	s.fileStall(id)
}

// fileStall files worm id under its stall due.
func (s *worm) fileStall(id int32) {
	s.stallDue[id] = s.stallWorm[id].lastAdvance + s.rec.cfg.StallThresholdCycles
	s.stall.file(id, s.stallDue[id])
}

// leave takes worm p out of the stall books as it leaves the network:
// delivered, or torn down by an abort.
func (s *worm) leave(p *packet) {
	if p.wid == 0 {
		return // recovery is not armed
	}
	id := p.wid - 1
	if due := s.stallDue[id]; due < 0 {
		s.stalled--
	} else {
		s.stall.unlink(id, due)
	}
	s.stallWorm[id], p.wid = nil, 0
	s.freeIDs = append(s.freeIDs, id)
}

// breakDeadlock is the per-cycle deadlock detection sweep. Every worm
// holding at least one VC slot runs the suspect → confirm state machine
// on its stall clock; confirmation requires wormWedged — the structural
// re-check that no flit of the worm can possibly move — so congestion
// (which always has some movable resource) is never aborted. The oldest
// confirmed worm is torn down, at most one per cycle. The sweep visits
// claimed slots in slot-index order, so each worm is judged at its
// lowest slot. It runs only in cycles with a stalled worm: the worms
// that come due without having advanced are counted, the others filed
// again, and the sweep un-counts those that advanced since.
func (s *worm) breakDeadlock() {
	cfg := &s.rec.cfg
	due := s.stall.take(s.now)
	for id := s.stall.pop(&due); id >= 0; id = s.stall.pop(&due) {
		switch {
		case s.stallDue[id] > s.now: // a later round of the calendar
			s.stall.file(id, s.stallDue[id])
		case s.now-s.stallWorm[id].lastAdvance >= cfg.StallThresholdCycles:
			s.stallDue[id] = -1
			s.stalled++
		default:
			s.fileStall(id)
		}
	}
	if s.stalled == 0 {
		return
	}
	vcs := int32(s.cfg.VCs)
	var victim *packet
	var victimSw int32 = -1
	mark := s.now + 1
	for c := nextBit(s.claimedChans, 0); c >= 0; c = nextBit(s.claimedChans, c+1) {
		for slot := c * vcs; slot < (c+1)*vcs; slot++ {
			p := s.slotPkt[slot]
			if p == nil || p.scan == mark {
				continue
			}
			p.scan = mark
			if s.now-p.lastAdvance < cfg.StallThresholdCycles {
				if id := p.wid - 1; s.stallDue[id] < 0 {
					s.stalled--
					s.fileStall(id)
				}
				continue
			}
			if p.suspectAt == 0 {
				p.suspectAt = s.now
				continue
			}
			if s.now-p.suspectAt < cfg.ConfirmCycles {
				continue
			}
			if !p.deadlocked {
				if !s.wormWedged(p) {
					// Some resource of the worm can still move: congestion,
					// not dependency deadlock. Re-arm the suspicion window.
					p.suspectAt = s.now
					continue
				}
				p.deadlocked = true
				s.rec.tr.Confirmed(s.now, p.st.PktID, s.chanDst[c])
			}
			if victim == nil || older(p, victim) {
				victim = p
				victimSw = s.chanDst[c]
			}
		}
	}
	if victim != nil && s.rec.tr.CanAbort(s.now) {
		s.abortWorm(victim, victimSw)
	}
}

// finalRecovery resolves the abort backlog at the end of a completed
// run: confirmed worms the one-abort-per-cycle pacing had not reached
// yet are torn down now, so the detected == recovered + lost identity
// holds in every returned Result. abortWorm clears every slot of the
// victim, so the sweep naturally visits each worm once.
func (s *worm) finalRecovery() {
	vcs := int32(s.cfg.VCs)
	for c := nextBit(s.claimedChans, 0); c >= 0; c = nextBit(s.claimedChans, c+1) {
		for slot := c * vcs; slot < (c+1)*vcs; slot++ {
			if p := s.slotPkt[slot]; p != nil && p.deadlocked {
				s.abortWorm(p, s.chanDst[c])
			}
		}
	}
}

// chain returns the slots worm p holds, in slot-index order, in the
// chainBuf scratch.
func (s *worm) chain(p *packet) []int32 {
	vcs := int32(s.cfg.VCs)
	chain := s.chainBuf[:0]
	for c := nextBit(s.claimedChans, 0); c >= 0; c = nextBit(s.claimedChans, c+1) {
		for slot := c * vcs; slot < (c+1)*vcs; slot++ {
			if s.slotPkt[slot] == p {
				chain = append(chain, slot)
			}
		}
	}
	s.chainBuf = chain
	return chain
}

// wormWedged is the confirmation pass: true only when no flit of the
// worm can possibly move this cycle — every routed slot with buffered
// flits faces a zero-credit downstream VC, every waiting header has no
// claimable candidate, and the host-side injection (if still streaming)
// is out of credits. A worm with an ejection slot is delivering and
// never wedged (the ejection port drains unconditionally).
func (s *worm) wormWedged(p *packet) bool {
	for _, sl := range s.chain(p) {
		if s.isEject[sl] {
			return false
		}
		if s.routed[sl] {
			if s.buffered[sl] > 0 && s.credits[s.outSlot[sl]] > 0 {
				return false
			}
			continue
		}
		if s.readyAt[sl] <= s.now && s.headCanRoute(p, int(s.chanDst[sl/int32(s.cfg.VCs)])) {
			return false
		}
	}
	if h := int(p.srcHost); s.hostCur[h] == p && s.credits[s.hostSlot[h]] > 0 {
		return false
	}
	return true
}

// headCanRoute is route's claim test without the escape patience: does
// the worm's waiting header have any candidate whose downstream VC slot
// is free on a live channel?
func (s *worm) headCanRoute(p *packet, sw int) bool {
	s.candidates(p, sw)
	best, _ := s.pick(sw, p.escLocked)
	if best < 0 && !p.escLocked {
		best, _ = s.pick(sw, true)
	}
	return best >= 0
}

// abortWorm scrubs every VC slot of a confirmed victim's chain
// (buffered flits discarded, in-flight flits and credits on the wire
// cancelled, flow control reset to full), releases the host NIC if the
// worm was still streaming, and tears it down; a re-sourced worm is
// reborn directly onto the escape network. All discarded flits are
// accounted in AbortedFlits so the flit books (auditFlits) stay exact.
func (s *worm) abortWorm(p *packet, sw int32) {
	chain := s.chain(p)
	for _, sl := range chain {
		if s.isEject[sl] {
			return // began delivering; it will drain on its own
		}
	}
	for _, sl := range chain {
		s.chainMark[sl] = true
	}
	// Scrub the wheel: flits flying toward a chain slot die with the
	// worm, and credits returning to a chain slot are superseded by the
	// full flow-control reset below.
	for i, wslot := range s.wheel.slots {
		kept := wslot[:0]
		for _, ev := range wslot {
			if (ev.kind == evArrive || ev.kind == evCredit) && s.chainMark[ev.vcIdx] {
				continue
			}
			kept = append(kept, ev)
		}
		s.wheel.slots[i] = kept
	}
	for _, sl := range chain {
		s.chainMark[sl] = false
		s.freeSlot(sl)
		s.credits[sl] = int32(s.cfg.BufFlitsPerVC)
	}
	if h := p.srcHost; s.hostCur[h] == p {
		s.hostCur[h] = nil
		if len(s.hostQ[h]) == 0 {
			s.hostIdle(h)
		}
	}
	flits := int64(p.injected)
	p.injected = 0
	p.escLocked = true
	s.leave(p)
	s.teardown(p, sw, flits)
}

// auditFlits structurally verifies flit conservation through
// abort-and-reinject: every flit a host ever injected is by now either
// ejected at a destination, torn down by an abort, buffered in some VC
// slot, or in flight on a wire. Runs at every fault epoch and at run
// end when recovery and the conservation monitor are both armed.
func (s *worm) auditFlits() {
	var resident int64
	for _, b := range s.buffered {
		resident += int64(b)
	}
	for _, wslot := range s.wheel.slots {
		for _, ev := range wslot {
			if ev.kind == evArrive {
				resident++
			}
		}
	}
	if s.flitsInjected != s.flitsEjected+s.rec.tr.AbortedFlits+resident {
		s.violate(MonitorConservation, -1,
			"flit books broken: injected %d != ejected %d + aborted %d + resident %d",
			s.flitsInjected, s.flitsEjected, s.rec.tr.AbortedFlits, resident)
	}
}
