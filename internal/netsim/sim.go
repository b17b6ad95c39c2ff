package netsim

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"dsnet/internal/graph"
	"dsnet/internal/recovery"
	"dsnet/internal/traffic"
)

// packet is one in-flight message (a worm, under wormhole switching).
type packet struct {
	st       PacketState // st.PktID is the packet's id
	genCycle int64
	// blockSince is the cycle this packet's head first failed to get an
	// adaptive grant, or -1. It drives the escape-patience policy.
	blockSince int64
	// Deadlock-recovery state (SetRecovery; see recovery.go), with
	// aborts, deadlocked and recovering below. suspectAt is the cycle the
	// head became a deadlock suspect (0 = unsuspected: suspicion requires
	// now >= StallThresholdCycles > 0, so cycle 0 can never legitimately
	// be a suspicion time); deadlocked marks a confirmed participant;
	// recovering pins the packet to the escape network after an abort;
	// aborts counts teardowns against recovery.Config.AbortBudget
	// (distinct from fault-transport attempts).
	suspectAt int64
	// Wormhole stall clock: lastAdvance is the last cycle any flit of the
	// worm moved or a route was claimed; scan dedupes the worm's
	// multi-slot chain during the per-cycle detection sweep.
	lastAdvance int64
	scan        int64
	srcHost     int32
	dstHost     int32
	// msg is the index of the Replay message this packet carries a part
	// of; meaningful only in closed-loop replay mode (see replay.go).
	msg int32
	// attempts counts source reinjections after fault drops; bounded by
	// Config.RetryBudget.
	attempts int32
	aborts   int32
	// injected counts the flits a wormhole host has streamed so far (the
	// teardown quantum).
	injected int32
	measured bool // generated inside the measurement window
	// rerouted marks packets that took at least one fault-detour grant,
	// counted once per packet in Result.Rerouted.
	rerouted   bool
	deadlocked bool
	recovering bool
	// escLocked implements the conservative Duato rule for wormhole: once
	// a worm enters the escape network it stays there until delivery.
	// (VCT can safely bounce back to adaptive channels because whole
	// packets are buffered; a worm stretched across switches cannot.)
	escLocked bool
}

// Deferred mutations are scheduled on a timing wheel: a ring of per-cycle
// slots whose size exceeds the maximum scheduling horizon (packet length
// plus the longest link delay, plus the longest retry backoff when the
// drop/retry transport is armed), so every event in slot now%len fires
// now. This supports heterogeneous per-channel link delays, which plain
// FIFO queues cannot.
type wheelEv struct {
	kind  uint8 // evArrive, evCredit, evDeliver, evRetry
	vcIdx int32
	// amt is the credit count of evCredit; for a wormhole evArrive, 1
	// marks the head flit.
	amt int32
	pkt *packet
}

const (
	evArrive = iota
	evCredit
	evDeliver
	// evRetry reinjects a fault-dropped packet at its source host after
	// its backoff expires.
	evRetry
)

type timingWheel struct {
	slots [][]wheelEv
}

func (w *timingWheel) schedule(now, at int64, e wheelEv) {
	if at <= now || at-now >= int64(len(w.slots)) {
		panic("netsim: event outside the timing-wheel horizon")
	}
	idx := at % int64(len(w.slots))
	w.slots[idx] = append(w.slots[idx], e)
}

// drain returns the events due at now and clears the slot.
func (w *timingWheel) drain(now int64) []wheelEv {
	idx := now % int64(len(w.slots))
	evs := w.slots[idx]
	w.slots[idx] = w.slots[idx][:0]
	return evs
}

// flowControl is what differs between the two switching engines. The
// fabric calls it a few times per cycle and once per arriving packet or
// flit; everything inside a call runs without further dispatch.
type flowControl interface {
	// driveHosts moves queued packets from host NICs into the switches.
	driveHosts()
	// arrive lands an evArrive event in its input VC.
	arrive(ev wheelEv)
	// allocate routes waiting heads and moves packets or flits through
	// the switches for one cycle.
	allocate()
	// faultEpoch scrubs the in-flight state a fault epoch invalidated;
	// revived lists the channels a repair just brought back.
	faultEpoch(revived []int32)
	// breakDeadlock confirms deadlocked packets and aborts at most one
	// victim (recovery armed only).
	breakDeadlock()
	// finalRecovery aborts every confirmed victim still waiting at run
	// end (recovery armed only).
	finalRecovery()
	// auditFlits checks the engine's flit books (recovery and the
	// conservation monitor armed).
	auditFlits()
}

// Sim is a single simulation instance: one topology, one routing
// function, one traffic pattern (or replayed workload), one injection
// rate, under virtual cut-through (NewSim) or wormhole (NewWormSim)
// switching. Sim is the fabric both engines share; fc holds the
// engine's flow control, which embeds the Sim by value so its hot path
// reaches fabric state without a pointer hop.
type Sim struct {
	cfg     Config
	g       *graph.Graph
	rt      Router
	pattern traffic.Pattern
	rate    float64 // offered load, flits/cycle/host
	rng     *rand.Rand
	fc      flowControl
	// failStop selects the wormhole engine's fault semantics (see
	// SetFaultPlan): fail-stop admission instead of the drop/retry
	// transport. Such runs also report no post-fault latencies, and a
	// watchdog trip does not mark them Saturated.
	failStop bool

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
	credits   []int32 // [chan*VCs+vc], buffer space as seen by the sender
	// Port reservations: a port is busy while its stamp is ahead of now.
	// VCT reserves a port for a whole packet, wormhole for one flit.
	inBusy  []int64 // per channel
	outBusy []int64 // per channel
	ejBusy  []int64 // per host

	chanFlits []int64 // flits forwarded per channel in the window

	hostQ [][]*packet // per-host unbounded injection queues
	// hostWork is the set of hosts driveHosts visits, one bit per host: a
	// host with a queued packet, or under wormhole a worm still streaming
	// in. queueHost, the only way onto a host queue, adds the host; the
	// engines remove it when it runs out of work.
	hostWork []uint64

	// park is the VCT allocator's parking state (DESIGN.md §8). It lives
	// in the fabric because returning credits, which wake parked heads,
	// land in processEvents. Empty under wormhole.
	park parking

	// wheel is sized at Run start (start); linkDelay holds the
	// per-channel wire delay in cycles (indexable by directed channel):
	// all entries default to cfg.LinkDelayCycles and SetCableDelays
	// derives the inter-switch ones from physical cable lengths.
	wheel     *timingWheel
	linkDelay []int64
	maxDelay  int64

	// routeEpoch advances whenever routing answers may change: at every
	// fault epoch (death masks, router tables and the recovery escape)
	// and at the deferred table swap that closes a drain epoch
	// (newRouteEpoch).
	routeEpoch uint64

	// Fault-injection state. The death masks are always allocated (all
	// false without a plan) so the hot paths stay branch-light; the
	// transport machinery (timeouts, retries) only arms once the first
	// failure fires, keeping zero-fault runs bit-identical.
	plan         *FaultPlan
	planIdx      int
	edgeDead     []bool  // per edge
	swDead       []bool  // per switch
	chanDead     []bool  // per directed channel, derived from the masks
	revived      []int32 // channels the current fault epoch repaired
	faultActive  bool    // at least one failure has occurred
	firstFault   int64   // cycle of the first failure, -1 before
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
	// packets that have left their host queue and not yet been delivered,
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
	lostTotal     int64 // packets permanently lost (retry or abort budget exhausted)
	retriedTotal  int64 // source reinjections
	timedOutTotal int64 // of droppedTotal, head-of-line timeout drops
	reroutedPkts  int64 // packets that took >= 1 fault-detour grant
	delPostFault  int64 // measured deliveries generated at/after firstFault
	postFaultLats []int64

	// Wormhole flit books: flits streamed in by hosts and ejected at
	// destinations.
	flitsInjected int64
	flitsEjected  int64

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
	watchdogTripped   bool
}

// NewSim builds a virtual cut-through simulation of graph g driven by
// router rt, traffic pattern p and an offered load of rate
// flits/cycle/host.
func NewSim(cfg Config, g *graph.Graph, rt Router, p traffic.Pattern, rate float64) (*Sim, error) {
	return newSim(cfg, g, rt, p, rate, false)
}

// NewWormSim builds a wormhole-switching simulation: virtual-channel
// flow control with flit-granular credits and buffers that may be
// smaller than a packet, so a blocked packet stalls in place as a
// "worm" stretched across several switches, each holding one VC
// exclusively until the tail passes. Section V.A of the paper discusses
// deadlock avoidance for exactly this regime ("wormhole or cut-through
// routing modes"). The router pipeline model matches NewSim: the header
// is routable PipelineCycles after arriving, every flit takes 1 cycle
// on a link plus its wire delay, and each input/output port moves at
// most one flit per cycle.
func NewWormSim(cfg Config, g *graph.Graph, rt Router, p traffic.Pattern, rate float64) (*Sim, error) {
	return newSim(cfg, g, rt, p, rate, true)
}

// newSim builds the shared fabric and attaches the engine's flow
// control. Each engine draws from its own RNG stream.
func newSim(cfg Config, g *graph.Graph, rt Router, p traffic.Pattern, rate float64, wormhole bool) (*Sim, error) {
	validate, stream := cfg.Validate, uint64(0x5ca1ab1e)
	if wormhole {
		validate, stream = cfg.ValidateWormhole, 0x7ea11e77
	}
	if err := validate(); err != nil {
		return nil, err
	}
	switch {
	case !(rate >= 0 && rate <= 1):
		return nil, fmt.Errorf("netsim: offered load %g flits/cycle/host outside [0,1]", rate)
	case rt == nil:
		return nil, fmt.Errorf("netsim: nil router")
	case p == nil && rate > 0:
		return nil, fmt.Errorf("netsim: nil traffic pattern at offered load %g", rate)
	}
	nSw := g.N()
	hosts := nSw * cfg.HostsPerSwitch
	nChan := 2*g.M() + hosts
	s := Sim{
		cfg: cfg, g: g, rt: rt, pattern: p, rate: rate,
		rng:      rand.New(rand.NewPCG(cfg.Seed, stream)),
		failStop: wormhole,
		nSw:      nSw,
		hosts:    hosts,
		nChan:    nChan,
		flows:    newFlowAcct(rt),
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
	s.credits = make([]int32, nChan*cfg.VCs)
	for i := range s.credits {
		s.credits[i] = int32(cfg.BufFlitsPerVC)
	}
	s.inBusy = make([]int64, nChan)
	s.outBusy = make([]int64, nChan)
	s.ejBusy = make([]int64, hosts)
	s.chanFlits = make([]int64, nChan)
	s.hostQ = make([][]*packet, hosts)
	s.hostWork = make([]uint64, (hosts+63)/64)
	s.edgeDead = make([]bool, g.M())
	s.swDead = make([]bool, nSw)
	s.chanDead = make([]bool, nChan)
	s.firstFault = -1
	if wormhole {
		return &newWorm(s).Sim, nil
	}
	return &newVCT(s).Sim, nil
}

// started rejects configuration calls, and a second Run, once Run has
// begun: start builds the timing wheel, so a second Run would drop every
// event in flight while every counter carried over.
func (s *Sim) started(call string) error {
	if s.wheel != nil {
		return fmt.Errorf("netsim: %s after Run started", call)
	}
	return nil
}

// SetFaultPlan attaches a fault schedule to the simulation. Must be
// called before Run. A plan with no events leaves the simulation
// bit-identical to a plain run.
//
// Under VCT switching, failed channels stop granting, flits in flight on
// a dying link (or buffered at a dying switch) are dropped, and the
// transport layer retries dropped packets from the source with bounded
// exponential backoff until Config.RetryBudget is exhausted.
//
// Under wormhole switching faults act at packet granularity only
// (fail-stop admission): once a component dies, new headers are never
// routed onto its channels, hosts on dead switches stop generating,
// nobody addresses a dead switch, and FaultAware routers are notified —
// but a worm already stretched across a dying link keeps draining over
// it rather than being truncated mid-flight (tearing down a partial worm
// would corrupt every slot in its chain). There is no timeout/retry
// transport either, so a fault set that disconnects live traffic from
// its destination freezes those worms in place; they are reported in
// InFlightAtEnd, and only a full-network stall trips the run watchdog.
// Use VCT switching for drop/retry degradation experiments.
func (s *Sim) SetFaultPlan(p *FaultPlan) error {
	if err := s.started("SetFaultPlan"); err != nil {
		return err
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
	return nil
}

// SetMonitors arms the runtime invariant monitors for this run. Must be
// called before Run. The monitors are passive observers: arming them
// never changes packet timing, RNG draws, or flow control — a run that
// trips no monitor is bit-identical to an unmonitored one.
func (s *Sim) SetMonitors(m Monitors) error {
	if err := s.started("SetMonitors"); err != nil {
		return err
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
	if err := s.started("SetRecovery"); err != nil {
		return err
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
// staying in flight, or becomes lost), and with recovery armed the
// engine's flit books.
func (s *Sim) checkConservation() {
	if !s.mon.Conservation {
		return
	}
	if s.generatedTotal != s.deliveredTotal+s.lostTotal+s.inFlight {
		s.violate(MonitorConservation, -1, "generated %d != delivered %d + lost %d + in-flight %d",
			s.generatedTotal, s.deliveredTotal, s.lostTotal, s.inFlight)
	}
	if s.rec != nil {
		s.fc.auditFlits()
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

// pinnedChan returns the directed channel from sw to next over edge ei,
// or -1 when the edge does not join them.
func (s *Sim) pinnedChan(sw int, ei, next int32) int32 {
	e := s.g.Edge(int(ei))
	if e.U == int32(sw) && e.V == next {
		return 2 * ei
	}
	if e.V == int32(sw) && e.U == next {
		return 2*ei + 1
	}
	return -1
}

// chanFor resolves a candidate to a directed channel, honoring a pinned
// physical edge when the router specified one.
func (s *Sim) chanFor(sw int, cand Candidate) int32 {
	if ei := cand.pinnedEdge(); ei >= 0 {
		return s.pinnedChan(sw, ei, cand.Next)
	}
	return s.findOutChan(sw, int(cand.Next))
}

// findOutChan locates the directed channel from sw to next. With parallel
// edges, the first live idle one is preferred; dead channels are never
// offered.
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

// start sizes the timing wheel for the link delays and fault plan now
// configured and returns the run's cycle bound and watchdog deadline.
func (s *Sim) start() (end, watchdog int64) {
	horizon := int64(s.cfg.PacketFlits) + s.maxDelay + 2
	if s.plan != nil && !s.failStop {
		// Cover the longest retry backoff of the drop/retry transport.
		horizon += s.retryBackoff << min(max(s.retryBudget-1, 0), 5)
	}
	s.wheel = &timingWheel{slots: make([][]wheelEv, horizon+1)}
	end = s.cfg.WarmupCycles + s.cfg.MeasureCycles + s.cfg.DrainCycles
	if s.rep != nil {
		end = s.rep.endCycle()
	}
	watchdog = s.cfg.WatchdogCycles
	if watchdog <= 0 {
		watchdog = Default().WatchdogCycles
	}
	return end, watchdog
}

// Run executes the full schedule (warmup + measurement + drain) and
// returns the aggregated result. In closed-loop replay mode the schedule
// is ignored: the run ends when the workload completes (or can no longer
// make progress, e.g. after permanent packet loss under faults). A Sim
// runs once; a second Run returns an error.
func (s *Sim) Run() (Result, error) {
	if err := s.started("Run"); err != nil {
		return Result{}, err
	}
	end, watchdog := s.start()
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
	if s.rec != nil {
		s.fc.finalRecovery()
	}
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
	s.fc.allocate()
	s.recoverStep()
}

func (s *Sim) processEvents() {
	for _, ev := range s.wheel.drain(s.now) {
		switch ev.kind {
		case evArrive:
			s.fc.arrive(ev)
		case evCredit:
			s.credits[ev.vcIdx] += ev.amt
			if int(ev.vcIdx) < s.park.sets {
				s.wakeCreditWaiters(ev.vcIdx)
			}
		case evDeliver:
			s.deliver(ev.pkt, s.now)
		case evRetry:
			s.reinject(ev.pkt)
		}
	}
}

// tracing reports whether p's lifecycle events are traced: tracing is
// on and p is under the trace budget. Trace calls are guarded with it so
// that their arguments are not built, and boxed, when tracing is off.
func (s *Sim) tracing(p *packet) bool {
	return s.cfg.Trace != nil && p.st.PktID < s.cfg.TracePackets
}

// trace logs one lifecycle event of a traced packet (see tracing).
func (s *Sim) trace(p *packet, event string, args ...any) {
	fmt.Fprintf(s.cfg.Trace, "t=%-8d pkt=%-6d %-8s", s.now, p.st.PktID, event)
	for i := 0; i+1 < len(args); i += 2 {
		fmt.Fprintf(s.cfg.Trace, " %s=%v", args[i], args[i+1])
	}
	fmt.Fprintln(s.cfg.Trace)
}

func (s *Sim) deliver(p *packet, at int64) {
	if !s.failStop && s.faultActive && s.swDead[p.st.DstSw] {
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
		if !s.failStop && s.firstFault >= 0 && p.genCycle >= s.firstFault {
			s.delPostFault++
			s.postFaultLats = append(s.postFaultLats, lat)
		}
	}
	if s.rep != nil {
		s.rep.onDeliver(p.msg, at)
	}
	s.flows.onDeliver(p.srcHost, p.dstHost, p.st)
	if s.tracing(p) {
		s.trace(p, "DELIVER", "host", p.dstHost, "hops", p.st.Step, "latency_cycles", at-p.genCycle)
	}
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
	if int(p.attempts) < s.retryBudget && !s.swDead[p.st.SrcSw] {
		shift := min(p.attempts, 5)
		p.attempts++
		s.retriedTotal++
		s.wheel.schedule(s.now, s.now+(s.retryBackoff<<shift), wheelEv{kind: evRetry, pkt: p})
		if s.tracing(p) {
			s.trace(p, why, "action", "retry", "attempt", p.attempts)
		}
		return
	}
	s.lostTotal++
	s.inFlight--
	if s.tracing(p) {
		s.trace(p, why, "action", "lost", "attempts", p.attempts)
	}
}

// reinject puts a retried packet back on its source host queue with
// fresh routing state.
func (s *Sim) reinject(p *packet) {
	if s.swDead[p.st.SrcSw] {
		s.lostTotal++
		s.inFlight--
		s.lastProgress = s.now
		if s.tracing(p) {
			s.trace(p, "RETRY", "action", "lost-src-dead")
		}
		return
	}
	p.st.Step = 0
	p.st.RtState = 0
	p.blockSince = -1
	s.queueHost(p.srcHost, p)
	s.lastProgress = s.now
	if s.tracing(p) {
		s.trace(p, "REINJECT", "src", p.srcHost, "attempt", p.attempts)
	}
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
	s.fc.driveHosts()
}

// genTraffic runs the open-loop Bernoulli injection process. All RNG
// consumption of the injection path lives here.
func (s *Sim) genTraffic() {
	pktProb := s.rate / float64(s.cfg.PacketFlits)
	hps := int32(s.cfg.HostsPerSwitch)
	for h := 0; h < s.hosts; h++ {
		srcDead := s.faultActive && s.swDead[int32(h)/hps]
		if srcDead && !s.failStop {
			continue // hosts of a dead switch are offline
		}
		if s.rng.Float64() < pktProb {
			dst := int32(s.pattern.Dest(h, s.rng))
			if s.failStop && s.faultActive && (srcDead || s.swDead[dst/hps]) {
				// Fail-stop admission: hosts on dead switches generate
				// nothing and nobody addresses a dead switch (the RNG
				// draws above keep the injection process aligned across
				// fault sets).
				s.nextID++
				continue
			}
			p := s.newPacket(int32(h), dst, -1, s.inWindow(s.now))
			if s.tracing(p) {
				s.trace(p, "GEN", "src", h, "dst", p.dstHost)
			}
		}
	}
}

// newPacket sources one packet at host src and queues it there.
func (s *Sim) newPacket(src, dst, msg int32, measured bool) *packet {
	p := &packet{
		srcHost:    src,
		dstHost:    dst,
		genCycle:   s.now,
		measured:   measured,
		blockSince: -1,
		msg:        msg,
	}
	p.st.PktID = s.nextID
	s.nextID++
	p.st.SrcSw = src / int32(s.cfg.HostsPerSwitch)
	p.st.DstSw = dst / int32(s.cfg.HostsPerSwitch)
	s.queueHost(src, p)
	s.generatedTotal++
	if measured {
		s.genMeasured++
	}
	s.inFlight++
	return p
}

// queueHost appends p to host h's injection queue and adds h to the
// hosts driveHosts visits. Every host-queue append goes through here.
func (s *Sim) queueHost(h int32, p *packet) {
	s.hostQ[h] = append(s.hostQ[h], p)
	s.hostWork[h>>6] |= 1 << (h & 63)
}

// popHost removes and returns the head of host h's queue. A pop that
// empties the queue keeps its array, so the next queueHost does not
// allocate.
func (s *Sim) popHost(h int) *packet {
	q := s.hostQ[h]
	if len(q) == 1 {
		s.hostQ[h] = q[:0]
	} else {
		s.hostQ[h] = q[1:]
	}
	return q[0]
}

// hostIdle removes host h from the hosts driveHosts visits.
func (s *Sim) hostIdle(h int32) {
	s.hostWork[h>>6] &^= 1 << (h & 63)
}

// nextBit returns the first member of the bitset set at or after i, or
// -1.
func nextBit(set []uint64, i int32) int32 {
	w := int(i >> 6)
	if w >= len(set) {
		return -1
	}
	word := set[w] &^ (1<<(i&63) - 1)
	for word == 0 {
		if w++; w == len(set) {
			return -1
		}
		word = set[w]
	}
	return int32(w<<6 + bits.TrailingZeros64(word))
}

// parking is the VCT allocator's record of blocked heads whose grant
// cannot succeed before something they wait on changes (DESIGN.md §8).
// wake[vcIdx] is the first cycle the head of input VC vcIdx may be
// granted again; 0 means it is not parked. A head parked for credits on
// inter-switch (channel, VC) ci holds a bit in waiters[ci*words:][:words]:
// bit pos[c]*VCs+vc for input VC (c, vc) of the channel's sending
// switch, where pos[c] is c's place in inChans. sets is the number of
// such (channel, VC) pairs, 0 under wormhole.
type parking struct {
	wake    []int64
	waiters []uint64
	pos     []int32
	words   int
	sets    int
}

// wakeCreditWaiters wakes the heads parked for credits on inter-switch
// (channel, VC) ci, which just got credits back.
func (s *Sim) wakeCreditWaiters(ci int32) {
	vcs := int32(s.cfg.VCs)
	ins := s.inChans[s.chanDst[(ci/vcs)^1]] // the channel's sending switch
	w := s.park.waiters[int(ci)*s.park.words:][:s.park.words]
	for i, word := range w {
		for ; word != 0; word &= word - 1 {
			b := int32(i<<6 + bits.TrailingZeros64(word))
			s.park.wake[ins[b/vcs]*vcs+b%vcs] = 0
		}
		w[i] = 0
	}
}

// newRouteEpoch advances routeEpoch, waking every parked head: their
// route memos and the death masks they were parked on are stale.
func (s *Sim) newRouteEpoch() {
	s.routeEpoch++
	clear(s.park.wake)
}

// applyFaults fires the fault events due this cycle: updates the death
// masks, lets the engine scrub what the epoch invalidated, and notifies
// a fault-aware router.
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
	// escape all change below, so every remembered route goes stale.
	s.newRouteEpoch()
	s.rebuildChanDead()
	s.fc.faultEpoch(s.revived)
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
		s.rec.esc.Rebuild(s.g, s.edgeDead, s.swDead)
	}
	// Fault epoch boundary: the conservation monitor audits the books
	// right after the masks, wheel, and queues were rewritten.
	s.checkConservation()
}

// rebuildChanDead recomputes the per-channel death mask from the edge
// and switch masks, collecting the channels that just came back from a
// repair in s.revived.
func (s *Sim) rebuildChanDead() {
	s.revived = s.revived[:0]
	for i, e := range s.g.Edges() {
		dead := s.edgeDead[i] || s.swDead[e.U] || s.swDead[e.V]
		s.setChanDead(int32(2*i), dead)
		s.setChanDead(int32(2*i+1), dead)
	}
	for h := 0; h < s.hosts; h++ {
		s.setChanDead(int32(2*s.g.M()+h), s.swDead[h/s.cfg.HostsPerSwitch])
	}
}

func (s *Sim) setChanDead(c int32, dead bool) {
	if s.chanDead[c] && !dead {
		s.revived = append(s.revived, c)
	}
	s.chanDead[c] = dead
}

// recoverStep lets the engine confirm deadlocks and abort at most one
// victim, then closes an open drain epoch once the network has emptied.
// Nil-rec runs skip it entirely.
func (s *Sim) recoverStep() {
	if s.rec == nil {
		return
	}
	s.fc.breakDeadlock()
	if s.rec.draining && s.inNetwork == 0 {
		s.rec.finishDrain(s.now, func() {
			if fa, ok := s.rt.(FaultAware); ok {
				fa.UpdateFaults(s.edgeDead, s.swDead)
			}
		})
		s.newRouteEpoch() // the deferred table swap
	}
}

// released clears the detection state of a packet that just advanced.
// If it was a confirmed deadlock victim, its resumption is accounted:
// a peer abort broke the cycle and this packet recovered for free (the
// Disha outcome — only the victim pays the teardown). With recovery
// disarmed deadlocked is never set and this is a plain field clear.
func (s *Sim) released(p *packet, sw int32) {
	if p.deadlocked && s.rec != nil {
		s.rec.tr.Release(s.now, p.st.PktID, sw)
		if s.rec.victim == p {
			s.rec.victim = nil
		}
	}
	p.suspectAt, p.deadlocked = 0, false
}

// older orders deadlock victims: earlier generation first, then lower
// packet id.
func older(p, q *packet) bool {
	return p.genCycle < q.genCycle || (p.genCycle == q.genCycle && p.st.PktID < q.st.PktID)
}

// teardown completes the Disha-style abort of a confirmed victim whose
// buffers the engine has already released: the packet leaves the
// network and is either re-sourced at its host, pinned to the escape
// network, or — past the abort budget, or with a dead source — declared
// lost with full accounting. flits is the teardown's aborted-flit
// count. Teardown is progress for the watchdog: it frees a resource
// chain.
func (s *Sim) teardown(p *packet, sw int32, flits int64) {
	s.inNetwork--
	s.lastProgress = s.now
	p.suspectAt, p.deadlocked = 0, false
	p.aborts++
	if int(p.aborts) > s.rec.cfg.AbortBudget || (s.faultActive && s.swDead[p.st.SrcSw]) {
		s.rec.tr.Aborted(s.now, p.st.PktID, sw, flits, p.aborts, true)
		s.lostTotal++
		s.inFlight--
		if s.tracing(p) {
			s.trace(p, "DLKLOST", "switch", sw, "attempts", p.aborts)
		}
		return
	}
	s.rec.tr.Aborted(s.now, p.st.PktID, sw, flits, p.aborts, false)
	p.st.Step = 0
	p.st.RtState = 0
	p.blockSince = -1
	p.recovering = true
	s.queueHost(p.srcHost, p)
	if s.tracing(p) {
		s.trace(p, "DLKABORT", "switch", sw, "attempt", p.aborts)
	}
}
