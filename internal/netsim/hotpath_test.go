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
// cycle: the awake-head and live-input counts, the pipe calendar, the
// dozing wheel, the busy calendar and the host set match the queues,
// ports and hosts; every asleep head is routable, parked at least until
// its sleep ends and filed by that cycle; every live memo sits on a
// non-empty queue, no memo is both live and free or live twice, every
// memo of the current epoch equals a fresh routing of its head, and no
// empty queue is parked.
func checkHotPath(t *testing.T, s *vct, rt *countingRouter, n *probeCounts) map[headKey]bool {
	t.Helper()
	vcs := int32(s.cfg.VCs)
	swLive := make([]int32, s.nSw)
	heads := map[headKey]bool{}
	owner := map[int32]bool{}
	piped, dozing := checkLinks(t, s)
	held := checkBusy(t, s)
	for c := int32(0); c < int32(s.nChan); c++ {
		sw := int(s.chanDst[c])
		var awake int32
		for vc := int32(0); vc < vcs; vc++ {
			vcIdx := c*vcs + vc
			q := &s.vcq[vcIdx]
			routable := !q.empty() && q.front().routableAt <= s.now
			if q.routable != routable || piped[vcIdx] != (!q.empty() && !routable) {
				t.Fatalf("cycle %d: queue (%d,%d) marked routable %v and piped %v, recount %v (%d queued)",
					s.now, c, vc, q.routable, piped[vcIdx], routable, len(q.entries)-int(q.head))
			}
			if q.asleep && (!routable || s.sleepEnd(vcIdx) <= s.now) || dozing[vcIdx] != (q.asleep && s.sleepEnd(vcIdx) != math.MaxInt64) {
				t.Fatalf("cycle %d: queue (%d,%d) asleep %v, routable %v, parked until %d, in the dozing wheel %v",
					s.now, c, vc, q.asleep, routable, s.park.wake[vcIdx], dozing[vcIdx])
			}
			if routable && !q.asleep {
				awake++
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
		if awake != s.chanRoutable[c] {
			t.Fatalf("cycle %d: channel %d awake routable heads %d, recount %d", s.now, c, s.chanRoutable[c], awake)
		}
		if held[c] != (s.inBusy[c] > s.now) {
			t.Fatalf("cycle %d: port %d held %v, busy until %d", s.now, c, held[c], s.inBusy[c])
		}
		if awake > 0 && !held[c] {
			swLive[sw]++
		}
	}
	if !slices.Equal(swLive, s.swLive) {
		t.Fatalf("cycle %d: switch live inputs %v, recount %v", s.now, s.swLive, swLive)
	}
	checkVCTHosts(t, s, n)
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

// calendarEntries walks calendar c and returns the entries it holds.
// Each entry sits in exactly one slot, the slot of its due cycle.
func calendarEntries(t *testing.T, now int64, what string, c *calendar, due func(i int32) int64) map[int32]bool {
	t.Helper()
	in := map[int32]bool{}
	for slot, i := range c.slots {
		for ; i != 0; i = c.next[i-1] {
			if in[i-1] || due(i-1)&int64(len(c.slots)-1) != int64(slot) {
				t.Fatalf("cycle %d: entry %d misfiled in %s slot %d", now, i-1, what, slot)
			}
			in[i-1] = true
		}
	}
	return in
}

// checkLinks walks the pipe calendar and the dozing wheel and returns
// the queues each holds. A queue sits in at most one slot of the two:
// in the pipe, the slot of its head's routableAt; in the wheel, the slot
// of the cycle its sleep ends. A queue in neither has no link.
func checkLinks(t *testing.T, s *vct) (piped, dozing map[int32]bool) {
	t.Helper()
	piped = calendarEntries(t, s.now, "pipe", &s.pipe, func(i int32) int64 {
		if s.vcq[i].empty() {
			t.Fatalf("cycle %d: empty queue %d in the pipe", s.now, i)
		}
		return s.vcq[i].front().routableAt
	})
	dozing = calendarEntries(t, s.now, "dozing", &s.dozing, func(i int32) int64 {
		if !s.vcq[i].asleep || piped[i] {
			t.Fatalf("cycle %d: queue %d in the dozing wheel, asleep %v, piped %v", s.now, i, s.vcq[i].asleep, piped[i])
		}
		return s.sleepEnd(i)
	})
	for i, next := range s.pipe.next {
		if !piped[int32(i)] && !dozing[int32(i)] && next != 0 {
			t.Fatalf("cycle %d: queue %d outside the pipe and the wheel links to %d", s.now, i, next-1)
		}
	}
	return piped, dozing
}

// checkBusy walks the busy calendar and returns the ports it holds. A
// port sits in the slot of its inBusy stamp and a NIC in the slot of
// its hostBusy stamp, each at most once and only while the stamp is
// ahead; the held bits mark exactly the ports there, every streaming
// NIC is there, and an entry outside the calendar has no link.
func checkBusy(t *testing.T, s *vct) []bool {
	t.Helper()
	in := calendarEntries(t, s.now, "busy", &s.busy, func(e int32) int64 {
		at := s.inBusy[min(e, int32(s.nChan)-1)]
		if e >= int32(s.nChan) {
			at = s.hostBusy[e-int32(s.nChan)]
		}
		if at <= s.now {
			t.Fatalf("cycle %d: busy entry %d in the calendar, busy until %d", s.now, e, at)
		}
		return at
	})
	for e, next := range s.busy.next {
		if !in[int32(e)] && next != 0 {
			t.Fatalf("cycle %d: busy entry %d outside the calendar links to %d", s.now, e, next-1)
		}
	}
	held := make([]bool, s.nChan)
	for c := range held {
		held[c] = in[int32(c)]
		if held[c] != s.portHeld(int32(c)) {
			t.Fatalf("cycle %d: port %d in the busy calendar %v, held bit %v", s.now, c, held[c], s.portHeld(int32(c)))
		}
	}
	for h := 0; h < s.hosts; h++ {
		if in[int32(s.nChan+h)] != (s.hostBusy[h] > s.now) {
			t.Fatalf("cycle %d: NIC %d in the busy calendar %v, streaming until %d", s.now, h, in[int32(s.nChan+h)], s.hostBusy[h])
		}
	}
	return held
}

// checkVCTHosts checks the VCT host set: every host in it has a queued
// packet, and every host with a queued packet is in it, or streaming
// (its NIC in the busy calendar), or blocked with no injection VC
// holding a packet's worth of credits. (queueHost may add a blocked
// host back before a credit returns; its next visit blocks it again.)
func checkVCTHosts(t *testing.T, s *vct, n *probeCounts) {
	t.Helper()
	for h := 0; h < s.hosts; h++ {
		bit := uint64(1) << (h & 63)
		in, blocked := s.hostWork[h>>6]&bit != 0, s.blocked[h>>6]&bit != 0
		queued, credits := len(s.hostQ[h]) > 0, false
		c := 2*s.g.M() + h
		for vc := 0; vc < s.cfg.VCs; vc++ {
			credits = credits || s.credits[c*s.cfg.VCs+vc] >= int32(s.cfg.PacketFlits)
		}
		if (in && !queued) || (blocked && (!queued || credits)) ||
			(queued && !in && !blocked && s.hostBusy[h] <= s.now) {
			t.Fatalf("cycle %d: host %d in the host set %v, blocked %v, queued %d, credits %v, streaming until %d",
				s.now, h, in, blocked, len(s.hostQ[h]), credits, s.hostBusy[h])
		}
		if blocked {
			n.blockedHosts++
		}
	}
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
// allocation pass: checkParked before it, checkBlockedParked and
// checkHOLWait after it.
type parkProbe struct {
	*vct
	t      *testing.T
	heads  []*packet // each queue's head before the pass
	at     []int64   // its routableAt (math.MaxInt64: empty)
	inBusy []int64   // each port's inBusy before the pass
	rrVC   []int     // each channel's rrVC before the pass
	n      *probeCounts
}

func newParkProbe(t *testing.T, v *vct) parkProbe {
	return parkProbe{v, t, make([]*packet, len(v.vcq)), make([]int64, len(v.vcq)),
		make([]int64, v.nChan), make([]int, v.nChan), &probeCounts{}}
}

// faultEpoch counts the repaired ports still reserved by a grant, which
// the repair frees at once.
func (p parkProbe) faultEpoch(revived []int32) {
	for _, c := range revived {
		if p.portHeld(c) {
			p.n.heldRepairs++
		}
	}
	p.vct.faultEpoch(revived)
}

func (p parkProbe) allocate() {
	checkParked(p.t, p.vct, p.n)
	for i := range p.vcq {
		p.heads[i], p.at[i] = nil, math.MaxInt64
		if q := &p.vcq[i]; !q.empty() {
			p.heads[i], p.at[i] = q.front().pkt, q.front().routableAt
		}
	}
	copy(p.inBusy, p.vct.inBusy)
	copy(p.rrVC, p.vct.rrVC)
	p.vct.allocate()
	checkBlockedParked(p.t, p.vct, p.heads)
	p.checkHOLWait()
}

// probeCounts tallies what the probes saw: the parked heads checkParked
// probed, by what they wait for; the asleep heads, those asleep until a
// wake and those whose sleep a cap cut short of their park; the
// blocked hosts; the repaired ports a grant still held; and the
// HOL-wait maximum of a scan over every routable head.
type probeCounts struct {
	eject, timed, credits     int
	asleep, forever, capped   int
	blockedHosts, heldRepairs int
	fullScanHOLWait           int64
}

// checkParked probes every parked head right before an allocation pass
// with launch's side-effect-free availability test: none may be
// grantable. A grant pass only takes outputs and credits away, so a
// head that cannot be granted now cannot be granted at its visit
// either. A parked head that is not ejecting holds a route memo of the
// current epoch with no channel resolved per attempt. An asleep head
// sleeps no later than its park and every armed cap: the cycle the HOL
// monitor, the fault timeout or the stall threshold would first act on
// it.
func checkParked(t *testing.T, s *vct, n *probeCounts) {
	t.Helper()
	vcs := int32(s.cfg.VCs)
	for vcIdx := range s.vcq {
		q := &s.vcq[vcIdx]
		wake := s.park.wake[vcIdx]
		if q.asleep {
			e, end := q.front(), s.sleepEnd(int32(vcIdx))
			n.asleep++
			if end == math.MaxInt64 {
				n.forever++
			} else if end < wake {
				n.capped++
			}
			if end < s.now || wake < end ||
				(s.mon.MaxHOLWaitCycles > 0 && end > e.routableAt+s.mon.MaxHOLWaitCycles+1) ||
				(s.faultActive && end > e.routableAt+s.faultTimeout+1) ||
				(s.rec != nil && end > e.routableAt+s.rec.cfg.StallThresholdCycles) {
				t.Fatalf("cycle %d: packet %d (routable at %d) asleep until %d, parked until %d",
					s.now, e.pkt.st.PktID, e.routableAt, end, wake)
			}
		}
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

// checkHOLWait replays, over the pass just run, the HOL-wait maximum of
// a scan that visits every routable head of every free port on a live
// switch, in round-robin order up to the VC it grants, and checks it
// against the engine's maximum raised by what the engine still owes:
// settle's credit for each channel whose heads all sleep.
func (p parkProbe) checkHOLWait() {
	s, vcs := p.vct, p.cfg.VCs
	for c := range p.inBusy {
		if p.inBusy[c] > s.now || (s.faultActive && s.swDead[s.chanDst[c]]) {
			continue
		}
		granted := -1 // a grant ends the channel's visit
		if s.inBusy[c] > s.now {
			granted = (s.rrVC[c] + vcs - 1) % vcs
		}
		for j, vc := 0, p.rrVC[c]%vcs; j < vcs; j, vc = j+1, (vc+1)%vcs {
			if at := p.at[c*vcs+vc]; at <= s.now {
				p.n.fullScanHOLWait = max(p.n.fullScanHOLWait, s.now-at)
			}
			if vc == granted {
				break
			}
		}
	}
	owed := s.maxHOLWait
	for c, n := range s.chanRoutable {
		for vc := 0; vc < vcs && n == 0 && s.inBusy[c] <= s.scanned; vc++ {
			if q := &s.vcq[c*vcs+vc]; q.asleep {
				owed = max(owed, s.scanned-q.front().routableAt)
			}
		}
	}
	if owed != p.n.fullScanHOLWait {
		p.t.Fatalf("cycle %d: HOL-wait maximum %d with %d owed, a full scan's %d",
			s.now, s.maxHOLWait, owed, p.n.fullScanHOLWait)
	}
}

// hotPathFixture is the set-up the bookkeeping audits share: the basic
// 36-switch DSN (whose cyclic custom routing wedges under load), DSN-V
// 36, a fault plan with switch death and repair, a link burst and two
// one-cycle link flaps (whose repairs find input ports a grant still
// holds), and recovery tuned to act within a short run, live and with
// drain epochs.
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
		LinkDown(2300, 60), LinkUp(2301, 60), LinkDown(4100, 61), LinkUp(4101, 61),
	)
	live = recovery.Default()
	live.StallThresholdCycles = 1024
	live.ConfirmCycles = 256
	drain = live
	drain.DrainOnFault = true
	return basic, dsnV, plan, live, drain
}

// bulkReplay sends one message of the given size from every host to
// the host half the fabric away, all at once: each host queues the
// whole message, and its injection VCs fill faster than they drain.
func bulkReplay(hosts int, flits int32) *Replay {
	r := &Replay{Name: "bulk"}
	for h := 0; h < hosts; h++ {
		r.Messages = append(r.Messages, ReplayMessage{SrcHost: int32(h), DstHost: int32((h + hosts/2) % hosts), Flits: flits})
	}
	return r
}

// TestHotPathBookkeeping steps VCT runs cycle by cycle through switch
// death and repair, a link burst, recovery aborts, drain epochs and a
// bulk replay whose hosts wait for injection credits, auditing the
// counts, calendars, host set, memo pool and route reuse after every
// cycle, probing every parked and asleep head before every allocation
// pass, and replaying the HOL-wait maximum of a full scan after it.
func TestHotPathBookkeeping(t *testing.T) {
	basic, dsnV, plan, rc, drain := hotPathFixture(t)
	dsnE, err := core.NewE(36)
	if err != nil {
		t.Fatal(err)
	}
	d16, err := core.New(16, core.CeilLog2(16)-1)
	if err != nil {
		t.Fatal(err)
	}
	// The HOL monitor is armed but cannot trip within a run, so asleep
	// heads are capped far ahead.
	capped := Monitors{Conservation: true, MaxHOLWaitCycles: 1 << 14}

	for _, tc := range []struct {
		name   string
		d      *core.DSN
		inner  func() (FaultAware, error)
		rate   float64
		replay *Replay
		plan   *FaultPlan
		mon    Monitors
		rec    *recovery.Config
	}{
		// The cyclic basic-DSN routing wedges under load, so heads stay
		// blocked across the live table swaps and recovery aborts.
		{"live", basic, func() (FaultAware, error) { return NewDSNSourceRoutedUnsafe(basic) }, 0.2, nil, plan, capped, &rc},
		{"drain", dsnV, func() (FaultAware, error) { return NewDuatoUpDown(dsnV.Graph(), Default().VCs) }, 0.04, nil, plan, capped, &drain},
		// DSN-E's source routes pin its parallel links, so while a drain
		// defers the table swap, heads keep routes over dead channels.
		{"drain-pinned", dsnE, func() (FaultAware, error) { return NewDSNSourceRouted(dsnE) }, 0.03, nil, plan, capped, &drain},
		// No fault, recovery or cap: parked heads sleep until a wake.
		{"replay", d16, func() (FaultAware, error) { return NewDuatoUpDown(d16.Graph(), Default().VCs) }, 0,
			bulkReplay(d16.N*Default().HostsPerSwitch, 32*int32(Default().PacketFlits)), nil, Monitors{Conservation: true}, nil},
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
			probe := newParkProbe(t, v)
			s.fc = probe
			if tc.replay != nil {
				if err := s.SetReplay(tc.replay); err != nil {
					t.Fatal(err)
				}
			}
			if tc.plan != nil {
				if err := s.SetFaultPlan(tc.plan); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.SetMonitors(tc.mon); err != nil {
				t.Fatal(err)
			}
			if tc.rec != nil {
				if err := s.SetRecovery(*tc.rec); err != nil {
					t.Fatal(err)
				}
			}
			swaps := 0
			end, _ := s.start()
			for s.now = 0; s.now < end; s.now++ {
				draining, epoch := s.rec != nil && s.rec.draining, s.routeEpoch
				s.cycle()
				if s.violation != nil {
					t.Fatal(s.violation)
				}
				rt.forget(checkHotPath(t, v, rt, probe.n))
				if draining && !s.rec.draining {
					// The drain swap runs on an empty network: no memo
					// survives it, and the epoch moved on.
					swaps++
					if len(v.freeMemos) != len(v.memos) || s.routeEpoch == epoch {
						t.Fatalf("cycle %d: drain swap left %d live memos, epoch %d -> %d",
							s.now, len(v.memos)-len(v.freeMemos), epoch, s.routeEpoch)
					}
				}
				if s.rep != nil && s.inFlight == 0 {
					break
				}
			}
			if s.rec != nil {
				v.finalRecovery()
			}
			v.finish()
			if v.maxHOLWait != probe.n.fullScanHOLWait {
				t.Fatalf("run end: HOL-wait maximum %d, a full scan's %d", v.maxHOLWait, probe.n.fullScanHOLWait)
			}
			// Run ends before cycle end's host and allocation passes,
			// which would free the ports and NICs and count the heads
			// whose reservation, pipeline or sleep ends at end.
			v.release()
			v.activate()
			checkHotPath(t, v, rt, probe.n)
			res := s.result()
			n := probe.n
			if len(v.memos) == 0 {
				t.Fatal("no head ever blocked; the memo path went unexercised")
			}
			if n.eject == 0 || n.timed == 0 || n.credits == 0 || n.asleep == 0 {
				t.Fatalf("probed: %+v; a kind of parking or sleep went unexercised", *n)
			}
			switch tc.name {
			case "live":
				if rt.updates == 0 || rt.recalls == 0 || res.AbortedFlits == 0 || n.capped == 0 || n.heldRepairs == 0 {
					t.Fatalf("UpdateFaults %d times, %d heads rerouted after it, %d flits aborted, %d sleeps capped, %d held ports repaired",
						rt.updates, rt.recalls, res.AbortedFlits, n.capped, n.heldRepairs)
				}
			case "drain", "drain-pinned":
				if swaps == 0 || rt.updates == 0 || (tc.name == "drain" && n.heldRepairs == 0) {
					t.Fatalf("%d drain swaps, UpdateFaults %d times, %d held ports repaired", swaps, rt.updates, n.heldRepairs)
				}
			case "replay":
				if !res.ReplayCompleted || n.forever == 0 || n.blockedHosts == 0 {
					t.Fatalf("replay completed %v, %d sleeps until a wake, %d blocked-host cycles",
						res.ReplayCompleted, n.forever, n.blockedHosts)
				}
			}
			t.Logf("memo pool %d, UpdateFaults %d, reroutes after it %d, drain swaps %d, aborted flits %d, probed %+v",
				len(v.memos), rt.updates, rt.recalls, swaps, res.AbortedFlits, *n)
		})
	}
}

// wormProbeCounts tallies what the wormhole probes saw: asleep headers
// by the kind of their sleep, the cycles that ended with a stalled worm,
// aborts past the abort budget of a worm still streaming in from a host
// with nothing else queued, and aborts that freed a header still in the
// pipeline.
type wormProbeCounts struct {
	asleep, forever, timed int
	stalledCycles          int
	lostStreaming          int
	pipeAborts             int
	fullScanHOLWait        int64
}

// checkWormCounts recounts the wormhole slots after a cycle: per channel
// and per switch, the waiting headers (cleared the pipeline, not routed,
// awake) and the routed slots holding flits; per channel, the claimed
// slots and the claimed-channel set; the pipe calendar, the asleep
// headers, the dozing calendar and their wait-set bits; and the host
// set.
func checkWormCounts(t *testing.T, s *worm) {
	t.Helper()
	vcs := int32(s.cfg.VCs)
	swWait := make([]int32, s.nSw)
	swMove := make([]int32, s.nSw)
	piped := calendarEntries(t, s.now, "pipe", &s.pipe, func(slot int32) int64 { return s.readyAt[slot] })
	dozing := calendarEntries(t, s.now, "dozing", &s.dozing, func(slot int32) int64 {
		if !s.asleep[slot] {
			t.Fatalf("cycle %d: awake slot %d in the dozing calendar", s.now, slot)
		}
		return s.sleepEnd(slot)
	})
	for c := int32(0); c < int32(s.nChan); c++ {
		var wait, move, claim int32
		for slot := c * vcs; slot < (c+1)*vcs; slot++ {
			if !piped[slot] && !dozing[slot] && s.pipe.next[slot] != 0 {
				t.Fatalf("cycle %d: slot %d outside the pipe and dozing calendars links to %d", s.now, slot, s.pipe.next[slot]-1)
			}
			if s.slotPkt[slot] == nil {
				if s.buffered[slot] != 0 || s.routed[slot] || s.asleep[slot] || piped[slot] {
					t.Fatalf("cycle %d: free slot %d holds %d flits, routed %v, asleep %v, piped %v",
						s.now, slot, s.buffered[slot], s.routed[slot], s.asleep[slot], piped[slot])
				}
				continue
			}
			claim++
			at := s.readyAt[slot]
			if pipe := !s.routed[slot] && at != neverReady && at > s.scanned; piped[slot] != pipe {
				t.Fatalf("cycle %d: slot %d (ready at %d) in the pipe %v, recount %v", s.now, slot, at, piped[slot], pipe)
			}
			if s.asleep[slot] {
				if s.routed[slot] || at > s.scanned || s.sleepEnd(slot) <= s.scanned ||
					dozing[slot] != (s.sleepEnd(slot) != math.MaxInt64) {
					t.Fatalf("cycle %d: asleep slot %d routed %v, ready at %d, sleeps until %d, in the dozing calendar %v",
						s.now, slot, s.routed[slot], at, s.sleepEnd(slot), dozing[slot])
				}
				checkWaitBits(t, s, slot)
			}
			switch {
			case !s.routed[slot]:
				if at <= s.scanned && !s.asleep[slot] {
					wait++
				}
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
	checkStall(t, s)
}

// checkStall checks the stall books after the last cycle run (scanned):
// every worm holding a slot has an id and is filed in the stall
// calendar under a due cycle still ahead and no later than lastAdvance +
// StallThresholdCycles, or is counted as stalled, which after the
// cycle's sweep it is; no other worm holds an id.
func checkStall(t *testing.T, s *worm) {
	t.Helper()
	if s.rec == nil {
		return
	}
	filed := calendarEntries(t, s.now, "stall", &s.stall, func(id int32) int64 { return s.stallDue[id] })
	held, stalled := map[int32]bool{}, int32(0)
	for _, p := range s.slotPkt {
		if p == nil || held[p.wid-1] {
			continue
		}
		id := p.wid - 1
		if id < 0 || s.stallWorm[id] != p {
			t.Fatalf("cycle %d: worm %d in the network with stall id %d", s.now, p.st.PktID, id)
		}
		held[id] = true
		due := s.stallDue[id]
		if due < 0 {
			stalled++
		}
		if filed[id] != (due >= 0) || (due >= 0 && (due <= s.scanned || due > p.lastAdvance+s.rec.cfg.StallThresholdCycles)) ||
			(due < 0 && s.scanned-p.lastAdvance < s.rec.cfg.StallThresholdCycles) {
			t.Fatalf("cycle %d: worm %d (advanced at %d) due %d, filed %v", s.now, p.st.PktID, p.lastAdvance, due, filed[id])
		}
	}
	if stalled != s.stalled || len(filed)+int(stalled) != len(held) || len(held)+len(s.freeIDs) != len(s.stallWorm) {
		t.Fatalf("cycle %d: %d stalled worms, recount %d; %d filed and %d free ids for %d worms of %d",
			s.now, s.stalled, stalled, len(filed), len(s.freeIDs), len(held), len(s.stallWorm))
	}
}

// wormEscapes reports whether route considers the escape candidates (in
// scratch) of the asleep header of worm p as of now: when it is
// escape-locked, has no adaptive candidate, or its patience is up.
func wormEscapes(s *worm, p *packet) bool {
	if p.escLocked || !slices.ContainsFunc(s.scratch, func(c Candidate) bool { return !c.Escape }) {
		return true
	}
	return p.blockSince >= 0 && s.now-p.blockSince >= s.cfg.EscapePatienceCycles
}

// checkWaitBits checks that the asleep header in slot is in the wait
// set of the downstream slot of every candidate route considers for it
// on a live channel, and that none of them resolves its channel per
// visit.
func checkWaitBits(t *testing.T, s *worm, slot int32) {
	t.Helper()
	vcs := int32(s.cfg.VCs)
	p, sw := s.slotPkt[slot], int(s.chanDst[slot/vcs])
	s.candidates(p, sw)
	escapes := wormEscapes(s, p)
	bit := s.waits.pos[slot/vcs]*vcs + slot%vcs
	for _, cand := range s.scratch {
		if cand.Escape && !escapes || !cand.Escape && p.escLocked {
			continue
		}
		oc := s.resolveChan(sw, cand)
		if oc == chanPerAttempt {
			t.Fatalf("cycle %d: header of packet %d asleep with a channel picked per visit", s.now, p.st.PktID)
		}
		if oc < 0 || (s.faultActive && s.chanDead[oc]) {
			continue
		}
		ci := int(oc*vcs) + int(cand.VC)
		if s.waits.waiters[ci*s.waits.words+int(bit>>6)]&(1<<(bit&63)) == 0 {
			t.Fatalf("cycle %d: header of packet %d asleep at slot %d but not waiting for slot %d", s.now, p.st.PktID, slot, ci)
		}
	}
}

// wormProbe is the wormhole flow control with checks around every
// route-and-forward pass (checkAsleep before it, the HOL-wait replay
// after it) and a tally of the aborts past the budget of worms still
// streaming in.
type wormProbe struct {
	*worm
	t  *testing.T
	at []int64 // each slot's readyAt before the pass, if a full scan visits it
	n  *wormProbeCounts
}

func (p wormProbe) allocate() {
	s := p.worm
	checkAsleep(p.t, s, p.n)
	for slot := range p.at {
		p.at[slot] = math.MaxInt64
		if s.slotPkt[slot] != nil && !s.routed[slot] && s.readyAt[slot] <= s.now {
			p.at[slot] = s.readyAt[slot]
		}
	}
	s.allocate()
	for _, at := range p.at {
		if at != math.MaxInt64 {
			p.n.fullScanHOLWait = max(p.n.fullScanHOLWait, s.now-at)
		}
	}
	if owed := wormHOLWaitOwed(s); owed != p.n.fullScanHOLWait {
		p.t.Fatalf("cycle %d: HOL-wait maximum %d with %d owed, a full scan's %d", s.now, s.maxHOLWait, owed, p.n.fullScanHOLWait)
	}
}

// wormHOLWaitOwed is the HOL-wait maximum raised by the settlements the
// asleep headers are owed.
func wormHOLWaitOwed(s *worm) int64 {
	owed := s.maxHOLWait
	for slot, asleep := range s.asleep {
		if asleep {
			owed = max(owed, s.scanned-s.readyAt[slot])
		}
	}
	return owed
}

func (p wormProbe) breakDeadlock() {
	s := p.worm
	streaming, held, ready := slices.Clone(s.hostCur), slices.Clone(s.slotPkt), slices.Clone(s.readyAt)
	routed, scanned := slices.Clone(s.routed), s.scanned
	s.breakDeadlock()
	if s.stalled > 0 {
		p.n.stalledCycles++
	}
	for h, w := range streaming {
		if w != nil && s.hostCur[h] == nil && int(w.aborts) > s.rec.cfg.AbortBudget && len(s.hostQ[h]) == 0 {
			p.n.lostStreaming++
		}
	}
	for slot, w := range held {
		if at := ready[slot]; w != nil && s.slotPkt[slot] != w && !routed[slot] && at != neverReady && at > scanned {
			p.n.pipeAborts++
		}
	}
}

// checkAsleep probes every asleep header right before a pass with
// route's own candidate test: no candidate route would consider may
// have a free slot on a live channel. (Slots free only after route in a
// cycle, so a header that cannot route now cannot route at its visit
// either.) Headers whose sleep ends this cycle wake before the scan and
// are left out. Each sleep ends no later than every armed cap: the end
// of a running escape patience and the cycle the HOL monitor trips.
func checkAsleep(t *testing.T, s *worm, n *wormProbeCounts) {
	t.Helper()
	vcs := int32(s.cfg.VCs)
	for slot, asleep := range s.asleep {
		if !asleep {
			continue
		}
		p, sw, end := s.slotPkt[slot], int(s.chanDst[int32(slot)/vcs]), s.sleepEnd(int32(slot))
		if end <= s.now {
			continue
		}
		n.asleep++
		if end == math.MaxInt64 {
			n.forever++
		} else {
			n.timed++
		}
		s.candidates(p, sw)
		escapes := wormEscapes(s, p)
		if (s.mon.MaxHOLWaitCycles > 0 && end > s.readyAt[slot]+s.mon.MaxHOLWaitCycles+1) ||
			(!escapes && end > p.blockSince+s.cfg.EscapePatienceCycles) {
			t.Fatalf("cycle %d: packet %d (ready at %d, blocked since %d) asleep until %d",
				s.now, p.st.PktID, s.readyAt[slot], p.blockSince, end)
		}
		best, _ := s.pick(sw, p.escLocked)
		if best < 0 && !p.escLocked && escapes {
			best, _ = s.pick(sw, true)
		}
		if best >= 0 {
			t.Fatalf("cycle %d: packet %d asleep at switch %d, but %v is free", s.now, p.st.PktID, sw, s.scratch[best])
		}
	}
}

// TestWormHotPathBookkeeping steps wormhole runs cycle by cycle through
// the VCT audit's fault plan (switch death and repair, a link burst),
// recovery aborts, a drain epoch, aborts past the abort budget and the
// end-of-run abort backlog. After every cycle it recounts the occupancy
// the route, forward and deadlock-sweep loops skip by, the calendars
// and the asleep headers; before every pass it probes each asleep
// header, and after it replays the HOL-wait maximum of a full scan.
func TestWormHotPathBookkeeping(t *testing.T) {
	basic, dsnV, plan, rc, drain := hotPathFixture(t)
	// Pace the live aborts so that confirmed worms are still waiting for
	// theirs when the run ends and finalRecovery tears them down.
	rc.GraceCycles = 256
	// With the smallest abort budget, no pacing and a stall threshold
	// shorter than the pipeline, aborts lose worms that still stream in
	// from their host and free headers still in the pipeline.
	lost := rc
	lost.AbortBudget, lost.GraceCycles = 1, 0
	lost.StallThresholdCycles, lost.ConfirmCycles = 16, 8
	// The HOL monitor is armed but cannot trip within a run, so asleep
	// headers wake at a finite cycle.
	capped := Monitors{Conservation: true, MaxHOLWaitCycles: 1 << 14}
	for _, tc := range []struct {
		name string
		d    *core.DSN
		rt   func() (Router, error)
		rate float64
		mon  Monitors
		rec  recovery.Config
	}{
		{"live", basic, func() (Router, error) { return NewDSNSourceRoutedUnsafe(basic) }, 0.1, Monitors{Conservation: true}, rc},
		{"drain", dsnV, func() (Router, error) { return NewDuatoUpDown(dsnV.Graph(), Default().VCs) }, 0.04, capped, drain},
		{"lost", basic, func() (Router, error) { return NewDSNSourceRoutedUnsafe(basic) }, 0.05, Monitors{Conservation: true}, lost},
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
			probe := wormProbe{w, t, make([]int64, len(w.slotPkt)), &wormProbeCounts{}}
			s.fc = probe
			if err := s.SetFaultPlan(plan); err != nil {
				t.Fatal(err)
			}
			if err := s.SetMonitors(tc.mon); err != nil {
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
			w.finish()
			n := probe.n
			if w.maxHOLWait != n.fullScanHOLWait {
				t.Fatalf("run end: HOL-wait maximum %d, a full scan's %d", w.maxHOLWait, n.fullScanHOLWait)
			}
			res := s.result()
			final := res.AbortedFlits - aborted
			switch tc.name {
			case "live":
				if aborted == 0 || final == 0 || n.forever == 0 || n.stalledCycles == 0 || n.stalledCycles == int(end) {
					t.Fatalf("aborted flits: %d during the run, %d by finalRecovery; %d sleeps until a wake; stalled worms in %d of %d cycles",
						aborted, final, n.forever, n.stalledCycles, end)
				}
			case "drain":
				if res.DrainEpochs == 0 || n.timed == 0 || n.forever != 0 {
					t.Fatalf("%d drain epochs, %d timed sleeps", res.DrainEpochs, n.timed)
				}
			case "lost":
				if n.lostStreaming == 0 || n.pipeAborts == 0 {
					t.Fatalf("%d worms lost at their abort budget while streaming in, %d aborts freed a header in the pipeline (%d lost)",
						n.lostStreaming, n.pipeAborts, res.Lost)
				}
			}
			t.Logf("aborted flits %d during the run and %d at its end, drain epochs %d, probed %+v",
				aborted, final, res.DrainEpochs, *n)
		})
	}
}
