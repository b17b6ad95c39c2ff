package netsim

import (
	"fmt"
	"math/rand/v2"

	"dsnet/internal/graph"
	"dsnet/internal/recovery"
	"dsnet/internal/traffic"
)

// packet is one in-flight message.
type packet struct {
	id       int64
	srcHost  int32
	dstHost  int32
	st       PacketState
	genCycle int64
	measured bool // generated inside the measurement window
	// blockSince is the cycle this packet's head first failed to get an
	// adaptive grant, or -1. It drives the escape-patience policy.
	blockSince int64
	// attempts counts source reinjections after fault drops; bounded by
	// Config.RetryBudget.
	attempts int32
	// rerouted marks packets that took at least one fault-detour grant,
	// counted once per packet in Result.Rerouted.
	rerouted bool
	// msg is the index of the Replay message this packet carries a part
	// of; meaningful only in closed-loop replay mode (see replay.go).
	msg int32
	// Deadlock-recovery state (SetRecovery; see recovery.go). suspectAt
	// is the cycle the head became a deadlock suspect (0 = unsuspected:
	// suspicion requires now >= StallThresholdCycles > 0, so cycle 0 can
	// never legitimately be a suspicion time); deadlocked marks a
	// confirmed participant; recovering pins the packet to the escape
	// network after an abort; aborts counts teardowns against
	// recovery.Config.AbortBudget (distinct from fault-transport
	// attempts).
	suspectAt  int64
	deadlocked bool
	recovering bool
	aborts     int32
}

// vcEntry is a packet queued in an input VC buffer.
type vcEntry struct {
	pkt        *packet
	routableAt int64 // header arrival + pipeline delay
}

// vcQueue is a FIFO of packets sharing one input VC buffer. memo is the
// route memo of the blocked head packet (index+1 into Sim.memos, 0 =
// none); see keepRoute.
type vcQueue struct {
	entries []vcEntry
	head    int
	memo    int32
}

func (q *vcQueue) empty() bool { return q.head >= len(q.entries) }

func (q *vcQueue) front() *vcEntry { return &q.entries[q.head] }

func (q *vcQueue) push(e vcEntry) { q.entries = append(q.entries, e) }

func (q *vcQueue) pop() {
	q.head++
	if q.head >= len(q.entries) {
		q.entries = q.entries[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 > len(q.entries) {
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

// Deferred mutations are scheduled on a timing wheel: a ring of per-cycle
// slots whose size exceeds the maximum scheduling horizon (packet length
// plus the longest link delay), so every event in slot now%len fires now.
// This supports heterogeneous per-channel link delays, which plain FIFO
// queues cannot.
type wheelEv struct {
	kind  uint8 // evArrive, evCredit, evDeliver
	vcIdx int32
	amt   int32
	pkt   *packet
}

const (
	evArrive = iota
	evCredit
	evDeliver
	// evRetry reinjects a fault-dropped packet at its source host after
	// its backoff expires.
	evRetry
)

type timingWheel[E any] struct {
	slots [][]E
}

func newTimingWheel[E any](horizon int64) *timingWheel[E] {
	return &timingWheel[E]{slots: make([][]E, horizon+1)}
}

func (w *timingWheel[E]) schedule(now, at int64, e E) {
	if at <= now || at-now >= int64(len(w.slots)) {
		panic("netsim: event outside the timing-wheel horizon")
	}
	idx := at % int64(len(w.slots))
	w.slots[idx] = append(w.slots[idx], e)
}

// drain returns the events due at now and clears the slot.
func (w *timingWheel[E]) drain(now int64) []E {
	idx := now % int64(len(w.slots))
	evs := w.slots[idx]
	w.slots[idx] = w.slots[idx][:0]
	return evs
}

// Sim is a single simulation instance: one topology, one routing
// function, one traffic pattern, one injection rate.
type Sim struct {
	cfg     Config
	g       *graph.Graph
	rt      Router
	pattern traffic.Pattern
	rate    float64 // offered load, flits/cycle/host
	rng     *rand.Rand

	nSw   int
	hosts int

	// Directed channels: edge e yields channels 2e (U->V) and 2e+1
	// (V->U); injection channel of host h is 2M + h. inChans lists a
	// switch's through-traffic channels first and injection channels
	// last; thruCount marks the boundary. The allocator serves
	// through-traffic with strict priority over injection, the standard
	// router policy that keeps the network stable past saturation.
	nChan     int
	chanDst   []int32 // destination switch of each channel
	inChans   [][]int32
	thruCount []int
	credits   []int32 // [chan*VCs+vc], held at the channel source
	vcq       []vcQueue
	inBusy    []int64 // input port streaming until (per channel)
	outBusy   []int64 // output port streaming until (per channel)
	hostBusy  []int64 // host NIC streaming until (per host)
	ejBusy    []int64 // ejection port busy until (per host)

	chanFlits []int64 // flits forwarded per channel in the window

	hostQ [][]*packet // per-host unbounded injection queues

	rrIn []int // per-switch round-robin input pointer
	rrVC []int // per-channel round-robin VC pointer

	// Occupancy: non-empty VC queues per switch and per input channel,
	// kept by enqueue/dequeue so allocate visits only where packets are.
	swOcc   []int32
	chanOcc []int32

	// Route reuse: a head whose grant failed keeps its routing answer in
	// a pooled memo until it leaves its queue or routeEpoch advances
	// (fault masks, router tables or the recovery escape changed).
	memos      []routeMemo
	freeMemos  []int32
	routeEpoch uint64

	scratch      []Candidate // reusable candidate buffer
	scratchChans []int32     // resolved channels of scratch

	wheel *timingWheel[wheelEv]

	// linkDelay holds the per-channel wire delay in cycles (indexable by
	// directed channel); all entries default to cfg.LinkDelayCycles and
	// NewSimCableAware derives them from physical cable lengths.
	linkDelay []int64
	maxDelay  int64

	// Fault-injection state. The death masks are always allocated (all
	// false without a plan) so the hot paths stay branch-light; the
	// transport machinery (timeouts, retries) only arms once the first
	// failure fires, keeping zero-fault runs bit-identical.
	plan         *FaultPlan
	planIdx      int
	edgeDead     []bool // per edge
	swDead       []bool // per switch
	chanDead     []bool // per directed channel, derived from the masks
	faultActive  bool   // at least one failure has occurred
	firstFault   int64  // cycle of the first failure, -1 before
	retryBudget  int
	retryBackoff int64
	faultTimeout int64

	// rep holds the closed-loop replay state (SetReplay); nil in open-loop
	// runs, whose behavior is untouched.
	rep *replayState

	// flows holds per-flow reorder/path-spread accounting, non-nil only
	// when the router implements PathIndexer (multipath source routing).
	flows *flowAcct

	// rec holds the armed deadlock-recovery machinery (SetRecovery); nil
	// means disarmed and every recovery hook is skipped. inNetwork counts
	// packets that have left their host NIC and not yet been delivered,
	// dropped, or aborted — the emptiness condition for drain epochs.
	// It is maintained unconditionally (it is pure bookkeeping).
	rec       *recState
	inNetwork int64

	// mon holds the armed runtime invariant monitors (SetMonitors);
	// violation records the first trip, which aborts Run at the end of
	// the cycle. maxHOLWait tracks the largest observed head-of-line
	// wait for Result.MaxHOLWaitCycles (always on; purely passive).
	mon        Monitors
	violation  *MonitorViolation
	maxHOLWait int64

	now          int64
	nextID       int64
	inFlight     int64
	lastProgress int64

	// fault accumulators
	droppedTotal  int64 // drop events (flit loss, timeouts), pre-retry
	lostTotal     int64 // packets permanently lost (budget exhausted)
	retriedTotal  int64 // source reinjections
	timedOutTotal int64 // of droppedTotal, head-of-line timeout drops
	reroutedPkts  int64 // packets that took >= 1 fault-detour grant
	delPostFault  int64 // measured deliveries generated at/after firstFault
	postFaultLats []int64

	// measurement accumulators
	genMeasured       int64
	delMeasured       int64 // delivered packets that were generated in window
	latencySum        int64 // cycles, over delMeasured
	hopsSum           int64 // switch-to-switch hops, over delMeasured
	latencies         []int64
	flitsInWindow     int64 // flits delivered during the window (any packet)
	grantsInWindow    int64 // switch grants during the window
	escGrantsInWindow int64 // of those, escape-channel grants
	deliveredTotal    int64
	generatedTotal    int64
	stalledCycles     int64
	watchdogTripped   bool
}

// NewSim builds a simulation of graph g driven by router rt, traffic
// pattern p and an offered load of rate flits/cycle/host.
func NewSim(cfg Config, g *graph.Graph, rt Router, p traffic.Pattern, rate float64) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("netsim: offered load %g flits/cycle/host outside [0,1]", rate)
	}
	nSw := g.N()
	hosts := nSw * cfg.HostsPerSwitch
	nChan := 2*g.M() + hosts
	s := &Sim{
		cfg: cfg, g: g, rt: rt, pattern: p, rate: rate,
		rng:   rand.New(rand.NewPCG(cfg.Seed, 0x5ca1ab1e)),
		nSw:   nSw,
		hosts: hosts,
		nChan: nChan,
		flows: newFlowAcct(rt),
	}
	s.chanDst = make([]int32, nChan)
	s.inChans = make([][]int32, nSw)
	for i, e := range g.Edges() {
		s.chanDst[2*i] = e.V
		s.chanDst[2*i+1] = e.U
		s.inChans[e.V] = append(s.inChans[e.V], int32(2*i))
		s.inChans[e.U] = append(s.inChans[e.U], int32(2*i+1))
	}
	s.thruCount = make([]int, nSw)
	for sw := range s.inChans {
		s.thruCount[sw] = len(s.inChans[sw])
	}
	for h := 0; h < hosts; h++ {
		c := 2*g.M() + h
		sw := h / cfg.HostsPerSwitch
		s.chanDst[c] = int32(sw)
		s.inChans[sw] = append(s.inChans[sw], int32(c))
	}
	s.linkDelay = make([]int64, nChan)
	for i := range s.linkDelay {
		s.linkDelay[i] = cfg.LinkDelayCycles
	}
	s.maxDelay = cfg.LinkDelayCycles
	s.wheel = newTimingWheel[wheelEv](int64(cfg.PacketFlits) + s.maxDelay + 2)
	s.credits = make([]int32, nChan*cfg.VCs)
	for i := range s.credits {
		s.credits[i] = int32(cfg.BufFlitsPerVC)
	}
	s.vcq = make([]vcQueue, nChan*cfg.VCs)
	s.inBusy = make([]int64, nChan)
	s.outBusy = make([]int64, nChan)
	s.hostBusy = make([]int64, hosts)
	s.ejBusy = make([]int64, hosts)
	s.chanFlits = make([]int64, nChan)
	s.hostQ = make([][]*packet, hosts)
	s.rrIn = make([]int, nSw)
	s.rrVC = make([]int, nChan)
	s.swOcc = make([]int32, nSw)
	s.chanOcc = make([]int32, nChan)
	s.edgeDead = make([]bool, g.M())
	s.swDead = make([]bool, nSw)
	s.chanDead = make([]bool, nChan)
	s.firstFault = -1
	return s, nil
}

// SetFaultPlan attaches a fault schedule to the simulation. Must be
// called before Run. Failed channels stop granting, flits in flight on a
// dying link (or buffered at a dying switch) are dropped, and the
// transport layer retries dropped packets from the source with bounded
// exponential backoff until Config.RetryBudget is exhausted. A plan with
// no events leaves the simulation bit-identical to a plain run.
func (s *Sim) SetFaultPlan(p *FaultPlan) error {
	if s.now != 0 || s.nextID != 0 {
		return fmt.Errorf("netsim: SetFaultPlan after Run started")
	}
	if p == nil {
		return fmt.Errorf("netsim: nil fault plan")
	}
	if err := p.Validate(s.g); err != nil {
		return err
	}
	s.plan = p
	s.planIdx = 0
	s.retryBudget = s.cfg.RetryBudget
	s.retryBackoff = s.cfg.RetryBackoffCycles
	s.faultTimeout = s.cfg.FaultTimeoutCycles
	if s.retryBudget == 0 && s.cfg.RetryBackoffCycles == 0 && s.cfg.FaultTimeoutCycles == 0 {
		// Hand-rolled Config with unset knobs: use the shipped defaults.
		d := Default()
		s.retryBudget = d.RetryBudget
		s.retryBackoff = d.RetryBackoffCycles
		s.faultTimeout = d.FaultTimeoutCycles
	}
	if s.retryBackoff < 1 {
		s.retryBackoff = 1
	}
	if s.faultTimeout < 1 {
		s.faultTimeout = Default().FaultTimeoutCycles
	}
	// Grow the timing wheel to cover the longest retry backoff.
	maxShift := s.retryBudget - 1
	if maxShift > 5 {
		maxShift = 5
	}
	if maxShift < 0 {
		maxShift = 0
	}
	horizon := int64(s.cfg.PacketFlits) + s.maxDelay + 2 + (s.retryBackoff << maxShift)
	s.wheel = newTimingWheel[wheelEv](horizon)
	return nil
}

// SetMonitors arms the runtime invariant monitors for this run. Must be
// called before Run. The monitors are passive observers: arming them
// never changes packet timing, RNG draws, or flow control — a run that
// trips no monitor is bit-identical to an unmonitored one.
func (s *Sim) SetMonitors(m Monitors) error {
	if s.now != 0 || s.nextID != 0 {
		return fmt.Errorf("netsim: SetMonitors after Run started")
	}
	if err := m.validate(); err != nil {
		return err
	}
	s.mon = m
	return nil
}

// SetRecovery arms runtime deadlock detection and progressive recovery
// for this run (see package recovery and DESIGN.md). Must be called
// before Run. Recovery is provably inert until a stall is confirmed: it
// draws no randomness and changes no flow control, so a run that never
// confirms a deadlock is bit-identical to an unarmed one.
func (s *Sim) SetRecovery(c recovery.Config) error {
	if s.now != 0 || s.nextID != 0 {
		return fmt.Errorf("netsim: SetRecovery after Run started")
	}
	c = c.Normalize()
	if err := c.Validate(); err != nil {
		return err
	}
	esc, err := recovery.NewEscape(s.g, s.cfg.VCs)
	if err != nil {
		return err
	}
	s.rec = newRecState(c, esc)
	return nil
}

// violate records the first monitor violation; later ones are dropped so
// the reported failure is the root event, not a cascade.
func (s *Sim) violate(monitor string, pkt int64, format string, args ...any) {
	if s.violation != nil {
		return
	}
	s.violation = &MonitorViolation{
		Monitor: monitor,
		Cycle:   s.now,
		Packet:  pkt,
		Detail:  fmt.Sprintf(format, args...),
	}
}

// checkConservation verifies generated == delivered + lost + in-flight,
// the packet-conservation identity that must hold at every cycle
// boundary (drops are transient: a dropped packet either retries,
// staying in flight, or becomes lost).
func (s *Sim) checkConservation() {
	if !s.mon.Conservation {
		return
	}
	if s.generatedTotal != s.deliveredTotal+s.lostTotal+s.inFlight {
		s.violate(MonitorConservation, -1, "generated %d != delivered %d + lost %d + in-flight %d",
			s.generatedTotal, s.deliveredTotal, s.lostTotal, s.inFlight)
	}
}

// outChanOf returns the directed channel from sw along the given incident
// half-edge.
func (s *Sim) outChanOf(sw int, h graph.Half) int32 {
	e := s.g.Edge(int(h.Edge))
	if int32(sw) == e.U {
		return 2 * h.Edge
	}
	return 2*h.Edge + 1
}

// resolveChan resolves a candidate to a directed channel for the route
// memo, honoring a pinned physical edge when the router specified one.
// An unpinned hop to a neighbor with several live channels returns
// chanPerAttempt: findOutChan's idle-port preference changes from cycle
// to cycle. Everything else it reads changes only at a routing epoch.
func (s *Sim) resolveChan(sw int, cand Candidate) int32 {
	if ei := cand.pinnedEdge(); ei >= 0 {
		e := s.g.Edge(int(ei))
		if e.U == int32(sw) && e.V == cand.Next {
			return 2 * ei
		}
		if e.V == int32(sw) && e.U == cand.Next {
			return 2*ei + 1
		}
		return -1
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

// findOutChan locates the directed channel from sw to next. With parallel
// edges, the first live non-busy one is preferred; dead channels are
// never offered.
func (s *Sim) findOutChan(sw, next int) int32 {
	best := int32(-1)
	for _, h := range s.g.Neighbors(sw) {
		if int(h.To) != next {
			continue
		}
		c := s.outChanOf(sw, h)
		if s.faultActive && s.chanDead[c] {
			continue
		}
		if s.outBusy[c] <= s.now {
			return c
		}
		if best < 0 {
			best = c
		}
	}
	return best
}

func (s *Sim) inWindow(t int64) bool {
	return t >= s.cfg.WarmupCycles && t < s.cfg.WarmupCycles+s.cfg.MeasureCycles
}

// Run executes the full schedule (warmup + measurement + drain) and
// returns the aggregated result. In closed-loop replay mode the schedule
// is ignored: the run ends when the workload completes (or can no longer
// make progress, e.g. after permanent packet loss under faults).
func (s *Sim) Run() (Result, error) {
	end := s.cfg.WarmupCycles + s.cfg.MeasureCycles + s.cfg.DrainCycles
	if s.rep != nil {
		end = s.rep.endCycle()
	}
	watchdog := s.cfg.WatchdogCycles
	if watchdog <= 0 {
		watchdog = Default().WatchdogCycles
	}
	s.lastProgress = 0
	for s.now = 0; s.now < end; s.now++ {
		s.cycle()
		if s.violation != nil {
			return s.result(), s.violation
		}
		if s.rep != nil && s.inFlight == 0 {
			// All released packets drained and inject() released every
			// ready message this cycle: the workload is either complete or
			// permanently wedged on lost messages. Either way, done.
			break
		}
		if s.inFlight > 0 && s.now-s.lastProgress > watchdog {
			s.watchdogTripped = true
			return s.result(), &NoProgressError{Cycle: s.now, InFlight: s.inFlight, WatchdogCycles: watchdog}
		}
	}
	s.finalRecovery()
	s.checkConservation()
	if s.violation != nil {
		return s.result(), s.violation
	}
	return s.result(), nil
}

// cycle runs the phases of one simulated cycle at s.now.
func (s *Sim) cycle() {
	s.applyFaults()
	s.processEvents()
	s.inject()
	s.allocate()
	s.recoverStep()
}

// finalRecovery resolves the abort backlog at the end of a completed
// run: confirmed victims the one-abort-per-cycle pacing had not reached
// yet are torn down now, so the detected == recovered + lost identity
// holds in every returned Result. Confirmed packets are always queue
// heads (only heads run the confirmation pass and a confirmed head can
// leave its queue only by grant, abort, or delivery), so one sweep over
// the head entries suffices.
func (s *Sim) finalRecovery() {
	if s.rec == nil {
		return
	}
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

func (s *Sim) processEvents() {
	for _, ev := range s.wheel.drain(s.now) {
		switch ev.kind {
		case evArrive:
			if s.faultActive && s.chanDead[int(ev.vcIdx)/s.cfg.VCs] {
				// The link died while these flits were on the wire.
				s.faultDrop(ev.pkt, "FAULT")
				continue
			}
			s.enqueue(ev.vcIdx, vcEntry{pkt: ev.pkt, routableAt: s.now + s.cfg.PipelineCycles})
		case evCredit:
			s.credits[ev.vcIdx] += ev.amt
		case evDeliver:
			s.deliver(ev.pkt, s.now)
		case evRetry:
			s.reinject(ev.pkt)
		}
	}
}

// enqueue appends a packet to input VC vcIdx, keeping the occupancy
// counts.
func (s *Sim) enqueue(vcIdx int32, e vcEntry) {
	q := &s.vcq[vcIdx]
	if q.empty() {
		c := vcIdx / int32(s.cfg.VCs)
		s.chanOcc[c]++
		s.swOcc[s.chanDst[c]]++
	}
	q.push(e)
}

// dequeue removes the head of input VC vcIdx, releasing its route memo
// and keeping the occupancy counts.
func (s *Sim) dequeue(vcIdx int32) {
	q := &s.vcq[vcIdx]
	if q.memo != 0 {
		s.freeMemos = append(s.freeMemos, q.memo-1)
		q.memo = 0
	}
	q.pop()
	if q.empty() {
		c := vcIdx / int32(s.cfg.VCs)
		s.chanOcc[c]--
		s.swOcc[s.chanDst[c]]--
	}
}

// trace logs one lifecycle event for packets under the trace budget.
func (s *Sim) trace(p *packet, event string, args ...any) {
	if s.cfg.Trace == nil || p.id >= s.cfg.TracePackets {
		return
	}
	fmt.Fprintf(s.cfg.Trace, "t=%-8d pkt=%-6d %-8s", s.now, p.id, event)
	for i := 0; i+1 < len(args); i += 2 {
		fmt.Fprintf(s.cfg.Trace, " %s=%v", args[i], args[i+1])
	}
	fmt.Fprintln(s.cfg.Trace)
}

func (s *Sim) deliver(p *packet, at int64) {
	if s.faultActive && s.swDead[p.st.DstSw] {
		// The destination switch died while the packet was crossing the
		// ejection wire.
		s.faultDrop(p, "FAULT")
		return
	}
	s.inNetwork--
	s.inFlight--
	s.deliveredTotal++
	s.lastProgress = s.now
	if s.inWindow(at) {
		s.flitsInWindow += int64(s.cfg.PacketFlits)
	}
	if p.measured {
		s.delMeasured++
		lat := at - p.genCycle
		s.latencySum += lat
		s.latencies = append(s.latencies, lat)
		s.hopsSum += int64(p.st.Step)
		if s.firstFault >= 0 && p.genCycle >= s.firstFault {
			s.delPostFault++
			s.postFaultLats = append(s.postFaultLats, lat)
		}
	}
	if s.rep != nil {
		s.rep.onDeliver(p.msg, at)
	}
	s.flows.onDeliver(p.srcHost, p.dstHost, p.st)
	s.trace(p, "DELIVER", "host", p.dstHost, "hops", p.st.Step, "latency_cycles", at-p.genCycle)
}

// faultDrop handles the loss of one in-flight packet instance to a
// fault: the transport layer reinjects it at the source after a bounded
// exponential backoff until the retry budget runs out, at which point
// the packet is permanently lost. Drops are progress for the watchdog:
// a degraded network that drains unroutable packets is live, not
// deadlocked.
func (s *Sim) faultDrop(p *packet, why string) {
	s.inNetwork--
	s.faultDropQueued(p, why)
}

// faultDropQueued is faultDrop for a packet that never left its host
// queue (dead-switch host queues): it was not in the network, so the
// drain-emptiness count is untouched.
func (s *Sim) faultDropQueued(p *packet, why string) {
	s.droppedTotal++
	s.lastProgress = s.now
	srcSw := int(p.srcHost) / s.cfg.HostsPerSwitch
	if int(p.attempts) < s.retryBudget && !s.swDead[srcSw] {
		shift := p.attempts
		if shift > 5 {
			shift = 5
		}
		p.attempts++
		s.retriedTotal++
		s.wheel.schedule(s.now, s.now+(s.retryBackoff<<shift), wheelEv{kind: evRetry, pkt: p})
		s.trace(p, why, "action", "retry", "attempt", p.attempts)
		return
	}
	s.lostTotal++
	s.inFlight--
	s.trace(p, why, "action", "lost", "attempts", p.attempts)
}

// reinject puts a retried packet back on its source host queue with
// fresh routing state.
func (s *Sim) reinject(p *packet) {
	srcSw := int(p.srcHost) / s.cfg.HostsPerSwitch
	if s.swDead[srcSw] {
		s.lostTotal++
		s.inFlight--
		s.lastProgress = s.now
		s.trace(p, "RETRY", "action", "lost-src-dead")
		return
	}
	p.st.Step = 0
	p.st.RtState = 0
	p.blockSince = -1
	s.hostQ[p.srcHost] = append(s.hostQ[p.srcHost], p)
	s.lastProgress = s.now
	s.trace(p, "REINJECT", "src", p.srcHost, "attempt", p.attempts)
}

// inject is one cycle of host-side work: sourcing new packets (open-loop
// Bernoulli generation, or dependency-gated release in replay mode) and
// streaming queued packets into the switches. Generation for one host
// cannot affect streaming for another within a cycle, so performing all
// generation first is behavior-identical to the historical interleaved
// loop — the RNG draw order is unchanged.
func (s *Sim) inject() {
	if s.rep != nil {
		s.releaseReady()
	} else {
		s.genTraffic()
	}
	s.driveHosts()
}

// genTraffic runs the open-loop Bernoulli injection process. All RNG
// consumption of the injection path lives here.
func (s *Sim) genTraffic() {
	pktProb := s.rate / float64(s.cfg.PacketFlits)
	for h := 0; h < s.hosts; h++ {
		if s.faultActive && s.swDead[h/s.cfg.HostsPerSwitch] {
			continue // hosts of a dead switch are offline
		}
		if s.rng.Float64() < pktProb {
			p := &packet{
				id:         s.nextID,
				srcHost:    int32(h),
				genCycle:   s.now,
				measured:   s.inWindow(s.now),
				blockSince: -1,
				msg:        -1,
			}
			s.nextID++
			p.st.PktID = p.id
			p.dstHost = int32(s.pattern.Dest(h, s.rng))
			p.st.SrcSw = int32(h / s.cfg.HostsPerSwitch)
			p.st.DstSw = p.dstHost / int32(s.cfg.HostsPerSwitch)
			s.hostQ[h] = append(s.hostQ[h], p)
			s.trace(p, "GEN", "src", h, "dst", p.dstHost)
			s.generatedTotal++
			if p.measured {
				s.genMeasured++
			}
			s.inFlight++
		}
	}
}

// driveHosts starts streaming the head packet of each host queue into
// its switch when the NIC is idle and a VC has a packet's worth of
// credits.
func (s *Sim) driveHosts() {
	if s.rec != nil && s.rec.draining {
		return // drain epoch: no new packets enter the network
	}
	for h := 0; h < s.hosts; h++ {
		if s.faultActive && s.swDead[h/s.cfg.HostsPerSwitch] {
			continue // hosts of a dead switch are offline
		}
		if len(s.hostQ[h]) == 0 || s.hostBusy[h] > s.now {
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
		p := s.hostQ[h][0]
		s.hostQ[h] = s.hostQ[h][1:]
		s.inNetwork++
		s.hostBusy[h] = s.now + int64(s.cfg.PacketFlits)
		s.credits[c*int32(s.cfg.VCs)+int32(bestVC)] -= int32(s.cfg.PacketFlits)
		s.wheel.schedule(s.now, s.now+1+s.linkDelay[c], wheelEv{
			kind:  evArrive,
			vcIdx: c*int32(s.cfg.VCs) + int32(bestVC),
			pkt:   p,
		})
		s.trace(p, "INJECT", "switch", h/s.cfg.HostsPerSwitch, "vc", bestVC)
		s.lastProgress = s.now
	}
}

// allocate performs routing, VC allocation and switch allocation for one
// cycle: every input port may launch at most one packet, every output
// port may accept at most one.
//
// Switches and input channels with no queued packet are skipped: a visit
// there grants nothing, moves no round-robin pointer and has no other
// side effect, so the skip leaves every cycle exactly as a full scan
// would.
func (s *Sim) allocate() {
	for sw := 0; sw < s.nSw; sw++ {
		if s.swOcc[sw] == 0 || (s.faultActive && s.swDead[sw]) {
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
				if s.chanOcc[c] == 0 || s.inBusy[c] > s.now {
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
			if s.chanOcc[c] == 0 || s.inBusy[c] > s.now {
				continue
			}
			s.tryInput(sw, c)
		}
	}
}

// tryInput attempts to grant the head packet of one VC of input channel c
// at switch sw. Returns true if a packet was launched.
func (s *Sim) tryInput(sw int, c int32) bool {
	vcs := s.cfg.VCs
	startVC := s.rrVC[c] % vcs
	for j, vc := 0, startVC; j < vcs; j, vc = j+1, vc+1 {
		if vc == vcs {
			vc = 0
		}
		vcIdx := c*int32(vcs) + int32(vc)
		q := &s.vcq[vcIdx]
		if q.empty() {
			continue
		}
		e := q.front()
		if e.routableAt > s.now {
			continue
		}
		if wait := s.now - e.routableAt; wait > s.maxHOLWait {
			s.maxHOLWait = wait
		}
		if s.mon.MaxHOLWaitCycles > 0 && s.now-e.routableAt > s.mon.MaxHOLWaitCycles {
			s.violate(MonitorHOLWait, e.pkt.id,
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
		if s.grant(sw, c, int32(vc), e.pkt) {
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
// (recoverStep). Everything here is passive: no RNG, no flow control.
func (s *Sim) observeStall(sw int, c, vc int32, e *vcEntry) {
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
		s.rec.tr.Confirmed(s.now, p.id, int32(sw))
		s.trace(p, "DLKCONF", "switch", sw, "waited", s.now-e.routableAt)
	}
	v := s.rec.victim
	if v == nil || p.genCycle < v.genCycle || (p.genCycle == v.genCycle && p.id < v.id) {
		s.rec.victim, s.rec.victimC, s.rec.victimVC, s.rec.victimSw = p, c, vc, int32(sw)
	}
}

// grant routes packet p (currently at the head of input (c, vc) of switch
// sw) to an output if one is available. Returns true on success.
func (s *Sim) grant(sw int, c, vc int32, p *packet) bool {
	pf := int64(s.cfg.PacketFlits)
	if int32(sw) == p.st.DstSw {
		// Ejection to the destination host.
		host := int(p.dstHost)
		if s.ejBusy[host] > s.now {
			return false
		}
		s.ejBusy[host] = s.now + pf
		s.inBusy[c] = s.now + pf
		s.wheel.schedule(s.now, s.now+pf+s.cfg.LinkDelayCycles, wheelEv{kind: evDeliver, pkt: p})
		s.returnCredits(c, vc)
		s.trace(p, "EJECT", "switch", sw, "host", host)
		s.lastProgress = s.now
		s.released(p, sw)
		return true
	}
	if s.mon.HopTTL > 0 && !p.rerouted && !p.recovering && p.st.Step >= s.mon.HopTTL {
		// The packet has already taken HopTTL hops and still is not at
		// its destination: the next grant would exceed the bound.
		s.violate(MonitorHopTTL, p.id, "packet exceeded the %d-hop route bound (src sw %d, dst sw %d, at sw %d)",
			s.mon.HopTTL, p.st.SrcSw, p.st.DstSw, sw)
		return false
	}
	q := &s.vcq[c*int32(s.cfg.VCs)+vc]
	if q.memo != 0 {
		if m := &s.memos[q.memo-1]; m.epoch == s.routeEpoch {
			return s.launch(sw, c, vc, p, m.cands, m.chans)
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
	return false
}

// keepRoute stores the routing answer in scratch as the route memo of
// q's blocked head, reusing the head's stale memo or a pooled one, so
// the head's later attempts in this routing epoch skip the router and
// channel resolution (DESIGN.md §8 has the byte-identity argument).
func (s *Sim) keepRoute(q *vcQueue) {
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
// Adaptive candidates are preferred; the escape channel is offered only
// after the packet has been head-blocked for EscapePatienceCycles (or
// immediately when the routing function is purely deterministic and has
// no adaptive options at all).
//
// chans holds each candidate's output channel from resolveChan; entries
// marked chanPerAttempt are resolved here, on every attempt.
func (s *Sim) launch(sw int, c, vc int32, p *packet, cands []Candidate, chans []int32) bool {
	pf := int32(s.cfg.PacketFlits)
	bestIdx := -1
	var bestCredits int32 = -1
	var bestChan int32
	hasAdaptive := false
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
		// options or once patience has run out.
		patienceUp := !hasAdaptive
		if hasAdaptive {
			if p.blockSince < 0 {
				p.blockSince = s.now
			}
			patienceUp = s.now-p.blockSince >= s.cfg.EscapePatienceCycles
		}
		if patienceUp {
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
	if bestIdx < 0 {
		return false
	}
	p.blockSince = -1
	s.released(p, sw)
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
	pf64 := int64(s.cfg.PacketFlits)
	s.inBusy[c] = s.now + pf64
	s.outBusy[bestChan] = s.now + pf64
	s.credits[bestChan*int32(s.cfg.VCs)+int32(cand.VC)] -= pf
	if s.inWindow(s.now) {
		s.chanFlits[bestChan] += pf64
	}
	s.wheel.schedule(s.now, s.now+1+s.linkDelay[bestChan], wheelEv{
		kind:  evArrive,
		vcIdx: bestChan*int32(s.cfg.VCs) + int32(cand.VC),
		pkt:   p,
	})
	s.returnCredits(c, vc)
	s.trace(p, "GRANT", "from", sw, "to", cand.Next, "vc", cand.VC, "escape", cand.Escape)
	p.st.Step++
	p.st.RtState = cand.NewState
	s.lastProgress = s.now
	return true
}

// applyFaults fires the fault events due this cycle: updates the death
// masks, drops flits caught on dead links and packets buffered at dead
// switches, resets repaired channels, and notifies a fault-aware router.
func (s *Sim) applyFaults() {
	if s.plan == nil || s.planIdx >= len(s.plan.Events) || s.plan.Events[s.planIdx].Cycle > s.now {
		return
	}
	for s.planIdx < len(s.plan.Events) && s.plan.Events[s.planIdx].Cycle <= s.now {
		ev := s.plan.Events[s.planIdx]
		s.planIdx++
		if ev.Edge >= 0 {
			s.edgeDead[ev.Edge] = !ev.Repair
		} else {
			s.swDead[ev.Switch] = !ev.Repair
		}
		if !ev.Repair && !s.faultActive {
			s.faultActive = true
			s.firstFault = s.now
		}
	}
	// New routing epoch: death masks, router tables and the recovery
	// escape all change below, so every route memo goes stale.
	s.routeEpoch++
	s.rebuildChanDead()
	s.scrubWheel()
	s.dropDeadQueues()
	if fa, ok := s.rt.(FaultAware); ok {
		if s.rec != nil && s.rec.cfg.DrainOnFault {
			// Drain-before-reconfigure: the physical masks above take
			// effect immediately (the hardware is gone), but the routing
			// tables swap only once the network has quiesced
			// (recoverStep → finishDrain).
			s.rec.beginDrain(s.now)
		} else {
			fa.UpdateFaults(s.edgeDead, s.swDead)
		}
	}
	if s.rec != nil {
		// The escape network re-derives on every epoch so recovery
		// reinjections never ride dead links.
		s.rec.rebuild(s.g, s.edgeDead, s.swDead)
	}
	// Fault epoch boundary: the conservation monitor audits the books
	// right after the masks, wheel, and queues were rewritten.
	s.checkConservation()
}

// recoverStep fires at most one abort per cycle — the oldest confirmed
// victim observed by this cycle's allocation pass — and closes an open
// drain epoch once the network has emptied. Nil-rec runs skip it
// entirely.
func (s *Sim) recoverStep() {
	if s.rec == nil {
		return
	}
	if v := s.rec.victim; v != nil {
		c, vc, sw := s.rec.victimC, s.rec.victimVC, s.rec.victimSw
		s.rec.victim = nil
		if s.rec.tr.CanAbort(s.now) {
			s.abortPacket(v, c, vc, sw)
		}
	}
	if s.rec.draining && s.inNetwork == 0 {
		s.rec.finishDrain(s.now, func() {
			if fa, ok := s.rt.(FaultAware); ok {
				fa.UpdateFaults(s.edgeDead, s.swDead)
			}
		})
		s.routeEpoch++ // the deferred table swap
	}
}

// released clears the detection state of a packet that just advanced.
// If it was a confirmed deadlock victim, its resumption is accounted:
// a peer abort broke the cycle and this packet recovered for free (the
// Disha outcome — only the victim pays the teardown). With recovery
// disarmed deadlocked is never set and this is a plain field clear.
func (s *Sim) released(p *packet, sw int) {
	if p.deadlocked && s.rec != nil {
		s.rec.tr.Release(s.now, p.id, int32(sw))
		if s.rec.victim == p {
			s.rec.victim = nil
		}
	}
	p.suspectAt, p.deadlocked = 0, false
}

// abortPacket is the Disha-style progressive teardown: the victim is
// removed from its input VC (restoring the credits exactly as a normal
// departure would), and either re-sourced at its host pinned to the
// escape network, or — past the abort budget, or with a dead source —
// declared lost with full accounting. Teardown is progress for the
// watchdog: it frees a resource chain.
func (s *Sim) abortPacket(p *packet, c, vc, sw int32) {
	vcIdx := c*int32(s.cfg.VCs) + vc
	q := &s.vcq[vcIdx]
	if q.empty() || q.front().pkt != p {
		return // the head moved since observation; no longer wedged here
	}
	s.dequeue(vcIdx)
	s.returnCredits(c, vc)
	s.inNetwork--
	s.lastProgress = s.now
	p.suspectAt, p.deadlocked = 0, false
	p.aborts++
	flits := int64(s.cfg.PacketFlits)
	srcSw := int(p.srcHost) / s.cfg.HostsPerSwitch
	lost := int(p.aborts) > s.rec.cfg.AbortBudget ||
		(s.faultActive && s.swDead[srcSw])
	if lost {
		s.rec.tr.Aborted(s.now, p.id, sw, flits, p.aborts, true)
		s.lostTotal++
		s.inFlight--
		s.trace(p, "DLKLOST", "switch", sw, "attempts", p.aborts)
		return
	}
	s.rec.tr.Aborted(s.now, p.id, sw, flits, p.aborts, false)
	p.st.Step = 0
	p.st.RtState = 0
	p.blockSince = -1
	p.recovering = true
	s.hostQ[p.srcHost] = append(s.hostQ[p.srcHost], p)
	s.trace(p, "DLKABORT", "switch", sw, "attempt", p.aborts)
}

// rebuildChanDead recomputes the per-channel death mask from the edge
// and switch masks, resetting the flow-control state of channels that
// just came back from a repair.
func (s *Sim) rebuildChanDead() {
	vcs := s.cfg.VCs
	for i, e := range s.g.Edges() {
		dead := s.edgeDead[i] || s.swDead[e.U] || s.swDead[e.V]
		s.setChanDead(int32(2*i), dead, vcs)
		s.setChanDead(int32(2*i+1), dead, vcs)
	}
	for h := 0; h < s.hosts; h++ {
		c := int32(2*s.g.M() + h)
		s.setChanDead(c, s.swDead[h/s.cfg.HostsPerSwitch], vcs)
	}
}

func (s *Sim) setChanDead(c int32, dead bool, vcs int) {
	if s.chanDead[c] == dead {
		return
	}
	s.chanDead[c] = dead
	if !dead {
		// Repair: fresh flow-control state. Credits restart at full
		// buffer capacity minus whatever survived in the input VCs
		// (packets already buffered downstream keep draining normally).
		for vc := 0; vc < vcs; vc++ {
			q := &s.vcq[c*int32(vcs)+int32(vc)]
			occupied := int32(len(q.entries)-q.head) * int32(s.cfg.PacketFlits)
			s.credits[c*int32(vcs)+int32(vc)] = int32(s.cfg.BufFlitsPerVC) - occupied
		}
		s.inBusy[c] = s.now
		s.outBusy[c] = s.now
	}
}

// scrubWheel removes scheduled events riding channels that are now dead:
// arrivals become fault drops (the flits died on the wire) and pending
// credits evaporate (the channel's flow control resets on repair).
func (s *Sim) scrubWheel() {
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
func (s *Sim) dropDeadQueues() {
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
		}
	}
	for _, p := range victims {
		s.faultDrop(p, "FAULT")
	}
	for _, p := range queued {
		s.faultDropQueued(p, "FAULT")
	}
}

// returnCredits schedules the freed buffer space of input VC (c, vc) back
// to the channel's sender once the tail has left and the credit has
// crossed the wire.
func (s *Sim) returnCredits(c, vc int32) {
	s.wheel.schedule(s.now, s.now+int64(s.cfg.PacketFlits)+s.linkDelay[c], wheelEv{
		kind:  evCredit,
		vcIdx: c*int32(s.cfg.VCs) + vc,
		amt:   int32(s.cfg.PacketFlits),
	})
}
