package netsim

import (
	"math"
	"slices"
	"testing"

	"dsnet/internal/core"
	"dsnet/internal/recovery"
	"dsnet/internal/traffic"
)

// headKey names one waiting head: a packet at a switch on one hop.
type headKey struct {
	pkt  int64
	step int32
	sw   int
}

// countingRouter wraps a fault-aware router and checks route reuse from
// the router's side: a head waiting at a switch calls Candidates at most
// once per routing epoch, and calls again once UpdateFaults changed the
// tables under it.
type countingRouter struct {
	FaultAware
	t       *testing.T
	sim     *Sim
	updates int                // UpdateFaults calls so far
	calls   map[headKey]uint64 // engine epoch of each waiting head's latest call
	at      map[headKey]int    // updates count at each waiting head's latest call
	recalls int                // calls by heads whose previous call predates an UpdateFaults
}

func newCountingRouter(t *testing.T, inner FaultAware) *countingRouter {
	return &countingRouter{FaultAware: inner, t: t, calls: map[headKey]uint64{}, at: map[headKey]int{}}
}

func (r *countingRouter) Candidates(st PacketState, sw int, buf []Candidate) []Candidate {
	h := headKey{st.PktID, st.Step, sw}
	if epoch, ok := r.calls[h]; ok {
		if epoch == r.sim.routeEpoch {
			r.t.Errorf("cycle %d: packet %d at switch %d routed twice in epoch %d", r.sim.now, st.PktID, sw, epoch)
		}
		if r.at[h] < r.updates {
			r.recalls++
		}
	}
	r.calls[h] = r.sim.routeEpoch
	r.at[h] = r.updates
	return r.FaultAware.Candidates(st, sw, buf)
}

func (r *countingRouter) UpdateFaults(edgeDead, swDead []bool) {
	r.updates++
	r.FaultAware.UpdateFaults(edgeDead, swDead)
}

// forget drops the books of packets that are no longer waiting heads,
// so a packet that leaves and later returns starts afresh.
func (r *countingRouter) forget(heads map[headKey]bool) {
	for h := range r.calls {
		if !heads[h] {
			delete(r.calls, h)
			delete(r.at, h)
		}
	}
}

// checkHotPath recounts the queues and audits the memo pool after a
// cycle: the routable-head counts and the pipe calendar match the
// queues, every live memo sits on a non-empty queue, no memo is both
// live and free or live twice, every memo of the current epoch equals a
// fresh routing of its head, no empty queue is parked, and the host set
// holds exactly the hosts with a queued packet.
func checkHotPath(t *testing.T, s *vct, rt *countingRouter) map[headKey]bool {
	t.Helper()
	vcs := int32(s.cfg.VCs)
	swRoutable := make([]int32, s.nSw)
	heads := map[headKey]bool{}
	owner := map[int32]bool{}
	piped := checkPipe(t, s)
	for c := int32(0); c < int32(s.nChan); c++ {
		sw := int(s.chanDst[c])
		var chanRoutable int32
		for vc := int32(0); vc < vcs; vc++ {
			vcIdx := c*vcs + vc
			q := &s.vcq[vcIdx]
			routable := !q.empty() && q.front().routableAt <= s.now
			if q.routable != routable || piped[vcIdx] != (!q.empty() && !routable) {
				t.Fatalf("cycle %d: queue (%d,%d) marked routable %v and piped %v, recount %v (%d queued)",
					s.now, c, vc, q.routable, piped[vcIdx], routable, len(q.entries)-int(q.head))
			}
			if routable {
				chanRoutable++
			}
			if q.empty() {
				if q.memo != 0 || s.park.wake[vcIdx] != 0 {
					t.Fatalf("cycle %d: empty queue (%d,%d) holds memo %d, parked until %d",
						s.now, c, vc, q.memo-1, s.park.wake[vcIdx])
				}
				continue
			}
			p := q.front().pkt
			heads[headKey{p.st.PktID, p.st.Step, sw}] = true
			if q.memo == 0 {
				continue
			}
			if owner[q.memo] {
				t.Fatalf("cycle %d: memo %d shared by two queues", s.now, q.memo-1)
			}
			owner[q.memo] = true
			m := &s.memos[q.memo-1]
			if m.epoch > s.routeEpoch {
				t.Fatalf("cycle %d: memo epoch %d ahead of engine epoch %d", s.now, m.epoch, s.routeEpoch)
			}
			if m.epoch < s.routeEpoch {
				continue // stale: the head's next attempt reroutes
			}
			var fresh []Candidate
			if p.recovering {
				fresh = s.rec.escapeCandidates(p.st, sw, nil)
			} else {
				fresh = rt.FaultAware.Candidates(p.st, sw, nil)
				if rt.at[headKey{p.st.PktID, p.st.Step, sw}] != rt.updates {
					t.Fatalf("cycle %d: packet %d keeps a route from before UpdateFaults", s.now, p.st.PktID)
				}
			}
			chans := make([]int32, len(fresh))
			for i, cand := range fresh {
				chans[i] = s.resolveChan(sw, cand)
			}
			if !slices.Equal(fresh, m.cands) || !slices.Equal(chans, m.chans) {
				t.Fatalf("cycle %d: memo of packet %d at switch %d is not its route:\nmemo %v %v\nfresh %v %v",
					s.now, p.st.PktID, sw, m.cands, m.chans, fresh, chans)
			}
		}
		if chanRoutable != s.chanRoutable[c] {
			t.Fatalf("cycle %d: channel %d routable heads %d, recount %d", s.now, c, s.chanRoutable[c], chanRoutable)
		}
		swRoutable[sw] += chanRoutable
	}
	if !slices.Equal(swRoutable, s.swRoutable) {
		t.Fatalf("cycle %d: switch routable heads %v, recount %v", s.now, s.swRoutable, swRoutable)
	}
	checkHostSet(t, &s.Sim, func(h int) bool { return len(s.hostQ[h]) > 0 })
	for _, i := range s.freeMemos {
		if owner[i+1] {
			t.Fatalf("cycle %d: memo %d both live and free", s.now, i)
		}
	}
	if len(owner)+len(s.freeMemos) != len(s.memos) {
		t.Fatalf("cycle %d: %d live + %d free memos != pool of %d", s.now, len(owner), len(s.freeMemos), len(s.memos))
	}
	return heads
}

// checkPipe walks the pipe calendar and returns the queues it holds. A
// queue sits in at most one slot, the one of its head's routableAt, and
// a queue outside the calendar has no link.
func checkPipe(t *testing.T, s *vct) map[int32]bool {
	t.Helper()
	piped := map[int32]bool{}
	for slot, i := range s.pipe {
		for ; i != 0; i = s.vcq[i-1].next {
			q := &s.vcq[i-1]
			if piped[i-1] || q.empty() || q.front().routableAt%int64(len(s.pipe)) != int64(slot) {
				t.Fatalf("cycle %d: queue %d misfiled in pipe slot %d", s.now, i-1, slot)
			}
			piped[i-1] = true
		}
	}
	for i := range s.vcq {
		if q := &s.vcq[i]; !piped[int32(i)] && q.next != 0 {
			t.Fatalf("cycle %d: queue %d outside the pipe links to %d", s.now, i, q.next-1)
		}
	}
	return piped
}

// checkHostSet checks that the hosts driveHosts visits are exactly the
// hosts with work.
func checkHostSet(t *testing.T, s *Sim, work func(h int) bool) {
	t.Helper()
	for h := 0; h < s.hosts; h++ {
		if in := s.hostWork[h>>6]&(1<<(h&63)) != 0; in != work(h) {
			t.Fatalf("cycle %d: host %d in the host set %v, has work %v", s.now, h, in, work(h))
		}
	}
}

// parkProbe is the VCT flow control with checks around every
// allocation pass: checkParked before it, checkBlockedParked after it.
type parkProbe struct {
	*vct
	t      *testing.T
	heads  []*packet
	parked *parkCounts
}

func (p parkProbe) allocate() {
	checkParked(p.t, p.vct, p.parked)
	for i := range p.vcq {
		p.heads[i] = nil
		if q := &p.vcq[i]; !q.empty() {
			p.heads[i] = q.front().pkt
		}
	}
	p.vct.allocate()
	checkBlockedParked(p.t, p.vct, p.heads)
}

// parkCounts tallies the parked heads checkParked probed, by what they
// wait for.
type parkCounts struct{ eject, timed, credits int }

// checkParked probes every parked head right before an allocation pass
// with launch's side-effect-free availability test: none may be
// grantable. A grant pass only takes outputs and credits away, so a
// head that cannot be granted now cannot be granted at its visit
// either. A parked head that is not ejecting holds a route memo of the
// current epoch with no channel resolved per attempt.
func checkParked(t *testing.T, s *vct, n *parkCounts) {
	t.Helper()
	vcs := int32(s.cfg.VCs)
	for vcIdx := range s.vcq {
		q := &s.vcq[vcIdx]
		wake := s.park.wake[vcIdx]
		if wake <= s.now {
			continue
		}
		c := int32(vcIdx) / vcs
		sw := int(s.chanDst[c])
		p := q.front().pkt
		if !q.routable {
			t.Fatalf("cycle %d: head of (%d,%d) parked inside the pipeline", s.now, c, int32(vcIdx)%vcs)
		}
		if p.st.DstSw == int32(sw) {
			if s.ejBusy[p.dstHost] <= s.now {
				t.Fatalf("cycle %d: packet %d parked until %d, but host %d can eject", s.now, p.st.PktID, wake, p.dstHost)
			}
			n.eject++
			continue
		}
		if q.memo == 0 || s.memos[q.memo-1].epoch != s.routeEpoch {
			t.Fatalf("cycle %d: packet %d parked without a route memo of epoch %d", s.now, p.st.PktID, s.routeEpoch)
		}
		m := &s.memos[q.memo-1]
		if slices.Contains(m.chans, chanPerAttempt) {
			t.Fatalf("cycle %d: packet %d parked with a channel resolved per attempt", s.now, p.st.PktID)
		}
		if i, oc, _ := s.pick(sw, p, m.cands, m.chans); i >= 0 {
			t.Fatalf("cycle %d: packet %d parked until %d at switch %d, but %v on channel %d is free",
				s.now, p.st.PktID, wake, sw, m.cands[i], oc)
		}
		if wake == math.MaxInt64 {
			n.credits++
		} else {
			n.timed++
		}
	}
}

// checkBlockedParked checks after an allocation pass that every head
// the pass tried and could not grant is parked, unless its route memo
// resolves a channel per attempt. Such a head was the head before the
// pass (heads) and still is, sits on a live switch, and its input port
// is still free: no VC of its channel was granted, so the pass visited
// every routable head there.
func checkBlockedParked(t *testing.T, s *vct, heads []*packet) {
	t.Helper()
	vcs := int32(s.cfg.VCs)
	for vcIdx := range s.vcq {
		q := &s.vcq[vcIdx]
		if !q.routable || q.front().pkt != heads[vcIdx] || s.park.wake[vcIdx] > s.now {
			continue
		}
		c := int32(vcIdx) / vcs
		sw := s.chanDst[c]
		if s.inBusy[c] > s.now || (s.faultActive && s.swDead[sw]) {
			continue
		}
		p := q.front().pkt
		if p.st.DstSw != sw && q.memo != 0 {
			if m := &s.memos[q.memo-1]; m.epoch == s.routeEpoch && slices.Contains(m.chans, chanPerAttempt) {
				continue
			}
		}
		t.Fatalf("cycle %d: packet %d failed its grant at switch %d but is not parked", s.now, p.st.PktID, sw)
	}
}

// hotPathFixture is the set-up the bookkeeping audits share: the basic
// 36-switch DSN (whose cyclic custom routing wedges under load), DSN-V
// 36, a fault plan with switch death and repair and a link burst, and
// recovery tuned to act within a short run, live and with drain epochs.
func hotPathFixture(t *testing.T) (basic, dsnV *core.DSN, plan *FaultPlan, live, drain recovery.Config) {
	t.Helper()
	basic, err := core.New(36, core.CeilLog2(36)-1)
	if err != nil {
		t.Fatal(err)
	}
	dsnV, err = core.NewV(36)
	if err != nil {
		t.Fatal(err)
	}
	plan = NewFaultPlan(
		SwitchDown(1500, 7),
		LinkDown(2000, 3), LinkDown(2000, 21), LinkDown(2000, 40), // a burst
		SwitchUp(2600, 7),
		LinkUp(3200, 3), LinkUp(3200, 21), LinkUp(3200, 40),
	)
	live = recovery.Default()
	live.StallThresholdCycles = 1024
	live.ConfirmCycles = 256
	drain = live
	drain.DrainOnFault = true
	return basic, dsnV, plan, live, drain
}

// TestHotPathBookkeeping steps VCT runs cycle by cycle through switch
// death and repair, a link burst, recovery aborts and drain epochs,
// auditing the routable-head counts, the pipe calendar, the host set,
// the memo pool and route reuse after every cycle, and probing every
// parked head before every allocation pass.
func TestHotPathBookkeeping(t *testing.T) {
	basic, dsnV, plan, rc, drain := hotPathFixture(t)
	dsnE, err := core.NewE(36)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		d     *core.DSN
		inner func() (FaultAware, error)
		rate  float64
		rec   recovery.Config
	}{
		// The cyclic basic-DSN routing wedges under load, so heads stay
		// blocked across the live table swaps and recovery aborts.
		{"live", basic, func() (FaultAware, error) { return NewDSNSourceRoutedUnsafe(basic) }, 0.2, rc},
		{"drain", dsnV, func() (FaultAware, error) { return NewDuatoUpDown(dsnV.Graph(), Default().VCs) }, 0.04, drain},
		// DSN-E's source routes pin its parallel links, so while a drain
		// defers the table swap, heads keep routes over dead channels.
		{"drain-pinned", dsnE, func() (FaultAware, error) { return NewDSNSourceRouted(dsnE) }, 0.03, drain},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner, err := tc.inner()
			if err != nil {
				t.Fatal(err)
			}
			rt := newCountingRouter(t, inner)
			cfg := Default()
			cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 1000, 2000, 3000
			g := tc.d.Graph()
			s, err := NewSim(cfg, g, rt, traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}, tc.rate)
			if err != nil {
				t.Fatal(err)
			}
			rt.sim = s
			v := s.fc.(*vct)
			var parked parkCounts
			s.fc = parkProbe{v, t, make([]*packet, len(v.vcq)), &parked}
			if err := s.SetFaultPlan(plan); err != nil {
				t.Fatal(err)
			}
			if err := s.SetMonitors(Monitors{Conservation: true}); err != nil {
				t.Fatal(err)
			}
			if err := s.SetRecovery(tc.rec); err != nil {
				t.Fatal(err)
			}
			swaps := 0
			end, _ := s.start()
			for s.now = 0; s.now < end; s.now++ {
				draining, epoch := s.rec.draining, s.routeEpoch
				s.cycle()
				if s.violation != nil {
					t.Fatal(s.violation)
				}
				rt.forget(checkHotPath(t, v, rt))
				if draining && !s.rec.draining {
					// The drain swap runs on an empty network: no memo
					// survives it, and the epoch moved on.
					swaps++
					if len(v.freeMemos) != len(v.memos) || s.routeEpoch == epoch {
						t.Fatalf("cycle %d: drain swap left %d live memos, epoch %d -> %d",
							s.now, len(v.memos)-len(v.freeMemos), epoch, s.routeEpoch)
					}
				}
			}
			v.finalRecovery()
			// Run ends before cycle end's allocation pass, which would
			// count the heads clearing the pipeline at end.
			v.activate()
			checkHotPath(t, v, rt)
			res := s.result()
			if len(v.memos) == 0 {
				t.Fatal("no head ever blocked; the memo path went unexercised")
			}
			if parked.eject == 0 || parked.timed == 0 || parked.credits == 0 {
				t.Fatalf("parked heads probed: %+v; a kind of parking went unexercised", parked)
			}
			switch tc.name {
			case "live":
				if rt.updates == 0 || rt.recalls == 0 || res.AbortedFlits == 0 {
					t.Fatalf("UpdateFaults %d times, %d heads rerouted after it, %d flits aborted",
						rt.updates, rt.recalls, res.AbortedFlits)
				}
			case "drain", "drain-pinned":
				if swaps == 0 || rt.updates == 0 {
					t.Fatalf("%d drain swaps, UpdateFaults %d times", swaps, rt.updates)
				}
			}
			t.Logf("memo pool %d, UpdateFaults %d, reroutes after it %d, drain swaps %d, aborted flits %d, parked heads probed %+v",
				len(v.memos), rt.updates, rt.recalls, swaps, res.AbortedFlits, parked)
		})
	}
}

// checkWormCounts recounts the wormhole slots after a cycle: per channel
// and per switch, the claimed slots whose header is not routed yet and
// the routed slots holding flits; per channel, the claimed slots and
// the claimed-channel set; and the host set.
func checkWormCounts(t *testing.T, s *worm) {
	t.Helper()
	vcs := int32(s.cfg.VCs)
	swWait := make([]int32, s.nSw)
	swMove := make([]int32, s.nSw)
	for c := int32(0); c < int32(s.nChan); c++ {
		var wait, move, claim int32
		for slot := c * vcs; slot < (c+1)*vcs; slot++ {
			if s.slotPkt[slot] == nil {
				if s.buffered[slot] != 0 || s.routed[slot] {
					t.Fatalf("cycle %d: free slot %d holds %d flits, routed %v", s.now, slot, s.buffered[slot], s.routed[slot])
				}
				continue
			}
			claim++
			switch {
			case !s.routed[slot]:
				wait++
			case s.buffered[slot] > 0:
				move++
			}
		}
		if wait != s.chanWait[c] || move != s.chanMove[c] || claim != s.chanClaim[c] {
			t.Fatalf("cycle %d: channel %d waiting/movable/claimed %d/%d/%d, recount %d/%d/%d",
				s.now, c, s.chanWait[c], s.chanMove[c], s.chanClaim[c], wait, move, claim)
		}
		if inSet := s.claimedChans[c>>6]&(1<<(c&63)) != 0; inSet != (claim > 0) {
			t.Fatalf("cycle %d: channel %d in claimed set %v with %d claimed slots", s.now, c, inSet, claim)
		}
		swWait[s.chanDst[c]] += wait
		swMove[s.chanDst[c]] += move
	}
	if !slices.Equal(swWait, s.swWait) || !slices.Equal(swMove, s.swMove) {
		t.Fatalf("cycle %d: switch waiting %v movable %v, recount %v %v", s.now, s.swWait, s.swMove, swWait, swMove)
	}
	checkHostSet(t, &s.Sim, func(h int) bool { return len(s.hostQ[h]) > 0 || s.hostCur[h] != nil })
}

// TestWormHotPathBookkeeping steps wormhole runs cycle by cycle through
// the VCT audit's fault plan (switch death and repair, a link burst),
// recovery aborts, a drain epoch and the end-of-run abort backlog,
// recounting the occupancy the route, forward and deadlock-sweep loops
// skip by after every cycle.
func TestWormHotPathBookkeeping(t *testing.T) {
	basic, dsnV, plan, rc, drain := hotPathFixture(t)
	// Pace the live aborts so that confirmed worms are still waiting for
	// theirs when the run ends and finalRecovery tears them down.
	rc.GraceCycles = 256
	for _, tc := range []struct {
		name string
		d    *core.DSN
		rt   func() (Router, error)
		rate float64
		rec  recovery.Config
	}{
		{"live", basic, func() (Router, error) { return NewDSNSourceRoutedUnsafe(basic) }, 0.1, rc},
		{"drain", dsnV, func() (Router, error) { return NewDuatoUpDown(dsnV.Graph(), Default().VCs) }, 0.04, drain},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := tc.rt()
			if err != nil {
				t.Fatal(err)
			}
			cfg := Default()
			cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 1000, 2000, 3000
			// Buffers shorter than a packet stretch worms over several
			// slots, so aborts also discard flits of routed slots.
			cfg.BufFlitsPerVC = 8
			g := tc.d.Graph()
			s, err := NewWormSim(cfg, g, rt, traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}, tc.rate)
			if err != nil {
				t.Fatal(err)
			}
			w := s.fc.(*worm)
			if err := s.SetFaultPlan(plan); err != nil {
				t.Fatal(err)
			}
			if err := s.SetMonitors(Monitors{Conservation: true}); err != nil {
				t.Fatal(err)
			}
			if err := s.SetRecovery(tc.rec); err != nil {
				t.Fatal(err)
			}
			end, _ := s.start()
			for s.now = 0; s.now < end; s.now++ {
				s.cycle()
				if s.violation != nil {
					t.Fatal(s.violation)
				}
				checkWormCounts(t, w)
			}
			aborted := s.rec.tr.AbortedFlits
			w.finalRecovery()
			checkWormCounts(t, w)
			res := s.result()
			final := res.AbortedFlits - aborted
			switch tc.name {
			case "live":
				if aborted == 0 || final == 0 {
					t.Fatalf("aborted flits: %d during the run, %d by finalRecovery", aborted, final)
				}
			case "drain":
				if res.DrainEpochs == 0 {
					t.Fatal("no drain epoch")
				}
			}
			t.Logf("aborted flits %d during the run and %d at its end, drain epochs %d",
				aborted, final, res.DrainEpochs)
		})
	}
}
