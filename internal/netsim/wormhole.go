package netsim

// worm is wormhole flow control (NewWormSim): flit-granular credits,
// one worm per (channel, VC) slot at a time, and each port moving at
// most one flit per cycle.
type worm struct {
	Sim

	// Per (channel, VC) slot state.
	slotPkt   []*packet
	buffered  []int32
	readyAt   []int64 // header arrival + pipeline; neverReady until header
	routed    []bool
	isEject   []bool
	outSlot   []int32 // allocated downstream slot (when routed, !isEject)
	outChan   []int32
	forwarded []int32

	// Host injection state.
	hostCur      []*packet
	hostSlot     []int32 // allocated injection slot
	hostInjected []int32

	rrIn []int

	// Occupancy, kept by claim, routeSlot, arrive, moveFlit and freeSlot
	// so that the per-cycle loops visit only slots with work: per switch and
	// per input channel, claimed slots whose header is not yet routed
	// (swWait, chanWait) and routed slots holding flits (swMove,
	// chanMove); per channel, claimed slots (chanClaim), with the set of
	// channels holding one as a bitset (claimedChans).
	swWait       []int32
	chanWait     []int32
	swMove       []int32
	chanMove     []int32
	chanClaim    []int32
	claimedChans []uint64

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
	w := &worm{
		Sim:          s,
		slotPkt:      make([]*packet, slots),
		buffered:     make([]int32, slots),
		readyAt:      make([]int64, slots),
		routed:       make([]bool, slots),
		isEject:      make([]bool, slots),
		outSlot:      make([]int32, slots),
		outChan:      make([]int32, slots),
		forwarded:    make([]int32, slots),
		hostCur:      make([]*packet, s.hosts),
		hostSlot:     make([]int32, s.hosts),
		hostInjected: make([]int32, s.hosts),
		rrIn:         make([]int, s.nSw),
		swWait:       make([]int32, s.nSw),
		chanWait:     make([]int32, s.nChan),
		swMove:       make([]int32, s.nSw),
		chanMove:     make([]int32, s.nChan),
		chanClaim:    make([]int32, s.nChan),
		claimedChans: make([]uint64, (s.nChan+63)/64),
		chainMark:    make([]bool, slots),
	}
	for i := range w.readyAt {
		w.readyAt[i] = neverReady
	}
	w.fc = w
	return w
}

// slot indexes the (channel, VC) slot state.
func (s *worm) slot(c int32, vc int8) int32 { return c*int32(s.cfg.VCs) + int32(vc) }

// claim gives a free slot to worm p; its header will wait there for a
// route.
func (s *worm) claim(slot int32, p *packet) {
	s.slotPkt[slot] = p
	s.waiting(slot, 1)
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
// buffered flits discarded when abortWorm tears its worm down.
func (s *worm) freeSlot(slot int32) {
	if !s.routed[slot] {
		s.waiting(slot, -1)
	} else if s.buffered[slot] > 0 {
		s.movable(slot, -1)
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
	}
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
// with no waiting header are skipped.
func (s *worm) route() {
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
				if p == nil || s.routed[slot] || s.readyAt[slot] > s.now {
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
				if p.recovering {
					// A recovery-reinjected worm rides the up*/down* escape
					// network exclusively (it is escLocked from rebirth).
					s.scratch = s.rec.escapeCandidates(p.st, sw, s.scratch[:0])
				} else {
					s.scratch = s.rt.Candidates(p.st, sw, s.scratch[:0])
				}
				bestSlot, bestChan := int32(-1), int32(-1)
				var bestCr int32 = -1
				bestEscape := false
				bestDetour := false
				var bestState uint8
				hasAdaptive := false
				for _, cand := range s.scratch {
					if cand.Escape || p.escLocked {
						if !cand.Escape {
							continue
						}
					} else {
						hasAdaptive = true
					}
					if cand.Escape && !p.escLocked {
						continue // escape considered below, after patience
					}
					oc := s.chanFor(sw, cand)
					if oc < 0 || (s.faultActive && s.chanDead[oc]) {
						continue
					}
					oslot := s.slot(oc, cand.VC)
					if s.slotPkt[oslot] != nil {
						continue
					}
					if cr := s.credits[oslot]; cr > bestCr {
						bestSlot, bestChan, bestCr, bestEscape, bestState = oslot, oc, cr, cand.Escape, cand.NewState
						bestDetour = cand.Detour
					}
				}
				if bestSlot < 0 && !p.escLocked {
					patienceUp := !hasAdaptive
					if hasAdaptive {
						if p.blockSince < 0 {
							p.blockSince = s.now
						}
						patienceUp = s.now-p.blockSince >= s.cfg.EscapePatienceCycles
					}
					if patienceUp {
						for _, cand := range s.scratch {
							if !cand.Escape {
								continue
							}
							oc := s.chanFor(sw, cand)
							if oc < 0 || (s.faultActive && s.chanDead[oc]) {
								continue
							}
							oslot := s.slot(oc, cand.VC)
							if s.slotPkt[oslot] != nil {
								continue
							}
							if cr := s.credits[oslot]; cr > bestCr {
								bestSlot, bestChan, bestCr, bestEscape, bestState = oslot, oc, cr, cand.Escape, cand.NewState
								bestDetour = cand.Detour
							}
						}
					}
				}
				if bestSlot < 0 {
					continue
				}
				p.blockSince = -1
				p.lastAdvance = s.now
				s.released(p, int32(sw))
				s.routeSlot(slot)
				s.outSlot[slot] = bestSlot
				s.outChan[slot] = bestChan
				s.claim(bestSlot, p) // claim downstream VC
				p.st.Step++
				p.st.RtState = bestState
				if bestEscape {
					p.escLocked = true
				}
				if bestDetour && !p.rerouted {
					p.rerouted = true
					s.reroutedPkts++
				}
				s.lastProgress = s.now
			}
		}
	}
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

// breakDeadlock is the per-cycle deadlock detection sweep. Every worm
// holding at least one VC slot runs the suspect → confirm state machine
// on its stall clock; confirmation requires wormWedged — the structural
// re-check that no flit of the worm can possibly move — so congestion
// (which always has some movable resource) is never aborted. The oldest
// confirmed worm is torn down, at most one per cycle. The sweep visits
// claimed slots in slot-index order, so each worm is judged at its
// lowest slot.
func (s *worm) breakDeadlock() {
	cfg := &s.rec.cfg
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

// headCanRoute mirrors route()'s claim test: does the worm's waiting
// header have any candidate whose downstream VC slot is free on a live
// channel? Credits are irrelevant for the claim itself.
func (s *worm) headCanRoute(p *packet, sw int) bool {
	if p.recovering {
		s.scratch = s.rec.escapeCandidates(p.st, sw, s.scratch[:0])
	} else {
		s.scratch = s.rt.Candidates(p.st, sw, s.scratch[:0])
	}
	for _, cand := range s.scratch {
		if p.escLocked && !cand.Escape {
			continue
		}
		oc := s.chanFor(sw, cand)
		if oc < 0 || (s.faultActive && s.chanDead[oc]) {
			continue
		}
		if s.slotPkt[s.slot(oc, cand.VC)] == nil {
			return true
		}
	}
	return false
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
