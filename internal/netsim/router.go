package netsim

import (
	"fmt"
	"slices"

	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/routing"
)

// Candidate is one (neighbor switch, VC) option offered by a routing
// function for the next hop of a packet.
type Candidate struct {
	Next   int32 // next switch
	VC     int8  // virtual channel to acquire at the next switch's input
	Escape bool  // true if this is the deadlock-free escape option
	// Edge pins the hop to a specific physical edge index, for topologies
	// with parallel links whose roles differ (DSN-E's dedicated Up and
	// Extra links). Zero value EdgeAny lets the simulator pick any edge
	// to Next.
	Edge int32
	// NewState becomes the packet's RtState if this candidate is taken.
	// Routers use it to carry per-packet routing state across hops: the
	// up*/down* descent latch, the DOR dateline bit, and so on.
	NewState uint8
	// Detour marks a candidate that exists only because of fabric faults:
	// a longer-than-fault-free adaptive hop or a ring-only fallback after
	// a dead shortcut. The simulator counts packets that take at least one
	// Detour grant in Result.Rerouted.
	Detour bool
}

// EdgeAny leaves the physical edge choice to the simulator.
const EdgeAny int32 = 0

// pinnedEdge decodes the Edge field: candidates store edgeIndex+1 so the
// zero value means "any".
func (c Candidate) pinnedEdge() int32 { return c.Edge - 1 }

// PinEdge returns the Candidate restricted to one physical edge.
func (c Candidate) PinEdge(edge int) Candidate {
	c.Edge = int32(edge) + 1
	return c
}

// PacketState is the routing-relevant state of an in-flight packet.
type PacketState struct {
	SrcSw   int32 // switch the packet was injected at
	DstSw   int32 // switch of the destination host
	Step    int32 // switch-to-switch hops taken so far
	PktID   int64 // unique per packet; randomized routers derandomize on it
	RtState uint8 // router-specific state, updated from Candidate.NewState
}

// descended interprets RtState for the up*/down*-based routers.
func (st PacketState) descended() bool { return st.RtState&1 != 0 }

func descState(d bool) uint8 {
	if d {
		return 1
	}
	return 0
}

// Router supplies next-hop candidates for packets. Implementations must
// be deterministic functions of the packet state and current switch:
// for a given (PacketState, sw), Candidates must return the same list on
// every call until the engine next calls FaultAware.UpdateFaults. The
// VCT engine relies on this to reuse a blocked head's candidates across
// cycles instead of routing it again on every attempt (DESIGN.md §8).
type Router interface {
	// Candidates appends the options for the packet at sw and returns the
	// extended slice. Adaptive options come first, escape options last;
	// the simulator prefers adaptive options with free buffers and falls
	// back to the escape.
	Candidates(st PacketState, sw int, buf []Candidate) []Candidate
}

// DuatoUpDown is the paper's simulated routing: fully adaptive minimal
// routing on VCs 1..VCs-1 with a deterministic up*/down* escape path on
// VC 0 (Silla & Duato [24]). Deadlock freedom follows from Duato's
// theory: the escape network's CDG is acyclic, and a blocked packet can
// always wait for the escape channel.
type DuatoUpDown struct {
	g   *graph.Graph
	dt  *routing.DistanceTable
	ud  *routing.UpDown
	vcs int

	// Fault state (UpdateFaults). dt0/ud0 are the pristine fault-free
	// tables, kept so repairs can restore them without a rebuild and so
	// Candidates can mark hops that are longer than the fault-free
	// distance as detours.
	dt0      *routing.DistanceTable
	ud0      *routing.UpDown
	edgeDead []bool
	swDead   []bool
	faulted  bool
}

// NewDuatoUpDown builds the routing function for graph g with the given
// number of VCs (VC 0 is the escape channel).
func NewDuatoUpDown(g *graph.Graph, vcs int) (*DuatoUpDown, error) {
	if vcs < 2 {
		return nil, fmt.Errorf("netsim: adaptive routing needs >= 2 VCs, got %d", vcs)
	}
	ud, err := routing.NewUpDown(g, 0)
	if err != nil {
		return nil, err
	}
	dt := routing.NewDistanceTable(g)
	return &DuatoUpDown{g: g, dt: dt, ud: ud, vcs: vcs, dt0: dt, ud0: ud}, nil
}

// UpdateFaults implements FaultAware: distances and the up*/down* escape
// tree are rebuilt on the surviving subgraph, rooted at the lowest-ID
// live switch (routing.Surviving). Pairs separated by the faults get no
// candidates at all, which the simulator's timeout/retry transport
// turns into drops rather than deadlock.
func (r *DuatoUpDown) UpdateFaults(edgeDead, swDead []bool) {
	r.edgeDead = append(r.edgeDead[:0], edgeDead...)
	r.swDead = append(r.swDead[:0], swDead...)
	r.faulted = slices.Contains(r.edgeDead, true) || slices.Contains(r.swDead, true)
	if !r.faulted { // everything repaired: restore the pristine tables
		r.dt, r.ud = r.dt0, r.ud0
		return
	}
	alive, ud := routing.Surviving(r.g, r.edgeDead, r.swDead)
	r.dt, r.ud = routing.NewDistanceTable(alive), ud
}

// Candidates implements Router.
func (r *DuatoUpDown) Candidates(st PacketState, sw int, buf []Candidate) []Candidate {
	dst := int(st.DstSw)
	if sw == dst {
		return buf
	}
	du := r.dt.D(sw, dst)
	if du == graph.Unreachable {
		return buf // faults cut every path; transport times the packet out
	}
	// A surviving distance longer than the fault-free one means every
	// remaining minimal hop is a fault detour.
	detour := r.faulted && du > r.dt0.D(sw, dst)
	for _, h := range r.g.Neighbors(sw) {
		if r.faulted && (r.edgeDead[h.Edge] || r.swDead[h.To]) {
			continue
		}
		if r.dt.D(int(h.To), dst) == du-1 {
			for vc := 1; vc < r.vcs; vc++ {
				// Taking an adaptive hop restarts the escape path, so the
				// descent latch clears.
				buf = append(buf, Candidate{Next: h.To, VC: int8(vc), Detour: detour})
			}
		}
	}
	next, down := r.ud.NextHop(sw, dst, st.descended())
	if next >= 0 && !(r.faulted && r.swDead[next]) {
		buf = append(buf, Candidate{
			Next: int32(next), VC: 0, Escape: true, Detour: detour,
			NewState: descState(st.descended() || down),
		})
	}
	return buf
}

// UpDownOnly routes every packet deterministically along its up*/down*
// path, spreading packets across all VCs of that one output. This is the
// pure topology-agnostic deterministic scheme the paper contrasts with
// its custom routing when discussing traffic balance.
type UpDownOnly struct {
	ud  *routing.UpDown
	vcs int
}

// NewUpDownOnly builds the deterministic up*/down* router.
func NewUpDownOnly(g *graph.Graph, vcs int) (*UpDownOnly, error) {
	if vcs < 1 {
		return nil, fmt.Errorf("netsim: need >= 1 VC, got %d", vcs)
	}
	ud, err := routing.NewUpDown(g, 0)
	if err != nil {
		return nil, err
	}
	return &UpDownOnly{ud: ud, vcs: vcs}, nil
}

// HopBound implements HopBounder: deterministic up*/down* routes never
// exceed the orientation's routing diameter. The bound holds only while
// the fabric is fault-free — UpDownOnly is not FaultAware, so monitors
// should not arm it for runs with a FaultPlan.
func (r *UpDownOnly) HopBound() int { return r.ud.MaxHops() }

// Candidates implements Router.
func (r *UpDownOnly) Candidates(st PacketState, sw int, buf []Candidate) []Candidate {
	dst := int(st.DstSw)
	if sw == dst {
		return buf
	}
	next, down := r.ud.NextHop(sw, dst, st.descended())
	if next < 0 {
		return buf
	}
	for vc := 0; vc < r.vcs; vc++ {
		buf = append(buf, Candidate{
			Next: int32(next), VC: int8(vc), Escape: true,
			NewState: descState(st.descended() || down),
		})
	}
	return buf
}

// DSNSourceRouted drives the simulator with the paper's custom DSN
// routing (the Section VII "initial work" on custom-routing simulations):
// every packet follows the deterministic three-phase route, one
// core.(*DSN).NextHop step per switch, and the Section V.A channel
// classes are mapped onto virtual channels so that the simulated channel
// sequences match the deadlock-free CDG verified in internal/routing:
//
//	VC 0: Up (PRE-WORK), Succ + Shortcut (MAIN)
//	VC 1: Pred, FinishSucc (FINISH outside the Extra window)
//	VC 2: ExtraPred, ExtraSucc (FINISH inside the window)
//
// The three groups are phase-ordered (PRE-WORK < MAIN < FINISH), and
// within VC 0 the pred-direction Up hops cannot mingle with succ-direction
// MAIN hops of another packet into a cycle because Up links never leave a
// super node. internal/verify certifies deadlock freedom statically by
// walking this router's Candidates over every pair (the dsnverify
// custom/3vc combinations), and re-certifies the ring detours after
// every fault event (CertifyDegradedDSN).
//
// The router keeps no per-pair state: a packet's RtState carries the
// phase and class of the hop that brought it to its switch, which is all
// NextHop needs, so building one costs nothing.
type DSNSourceRouted struct {
	d *core.DSN

	// Fault state (UpdateFaults). When the route's next hop dies under a
	// packet, the packet abandons the route and re-sources onto a
	// ring-only detour toward its destination (RtState bit 0), walking
	// whichever direction is shorter and reversing if it hits a cut
	// (bit 1). Detours ride the FINISH-phase channel classes; they are
	// best-effort — a pathological fault set can cycle them, and the
	// simulator's timeout/retry transport is the liveness backstop.
	edgeDead []bool
	swDead   []bool
	faulted  bool
}

// RtState layout. Bits 0-1 are the fault-detour bits. On the route,
// bits 2-3 hold the phase and bits 4-6 the class of the hop that brought
// the packet to its switch: zero, core.NextHop's zero Hop, at the source
// and after every reinjection.
const (
	dsnDetour     uint8 = 1 << 0 // packet abandoned its route
	dsnCCW        uint8 = 1 << 1 // detour walks counterclockwise (pred links)
	dsnPhaseShift       = 2
	dsnClassShift       = 4
)

// UpdateFaults implements FaultAware.
func (r *DSNSourceRouted) UpdateFaults(edgeDead, swDead []bool) {
	r.edgeDead = append(r.edgeDead[:0], edgeDead...)
	r.swDead = append(r.swDead[:0], swDead...)
	r.faulted = slices.Contains(r.edgeDead, true) || slices.Contains(r.swDead, true)
}

// NewDSNSourceRouted builds the router with the DSN custom routing
// algorithm. It requires a deadlock-free variant (DSN-E or DSN-V) so the
// channel classes are meaningful.
func NewDSNSourceRouted(d *core.DSN) (*DSNSourceRouted, error) {
	if d.Variant != core.VariantE && d.Variant != core.VariantV {
		return nil, fmt.Errorf("netsim: source-routed DSN needs variant E or V, got %v", d.Variant)
	}
	return &DSNSourceRouted{d: d}, nil
}

// NewDSNSourceRoutedUnsafe builds the custom routing for the BASIC DSN
// variant, whose channel classes share ring channels between phases and
// whose CDG provably contains a cycle (see internal/routing's
// TestBasicDSNRoutingHasCDGCycle). It exists to demonstrate empirically
// that the Section V.A channels are necessary: under load the simulation
// genuinely deadlocks and the run watchdog trips.
func NewDSNSourceRoutedUnsafe(d *core.DSN) (*DSNSourceRouted, error) {
	return &DSNSourceRouted{d: d}, nil
}

// ClassVC maps a Section V.A channel class to its virtual channel in the
// simulator's 4-VC budget (one VC is left spare).
func ClassVC(c core.LinkClass) (int8, error) {
	switch c {
	case core.ClassUp, core.ClassSucc, core.ClassShortcut, core.ClassShort:
		return 0, nil
	case core.ClassPred, core.ClassFinishSucc:
		return 1, nil
	case core.ClassExtraPred, core.ClassExtraSucc:
		return 2, nil
	default:
		return 0, fmt.Errorf("netsim: unmapped link class %v", c)
	}
}

// HopBound implements HopBounder with Theorem 1(c)'s routing-diameter
// bound 3p+r: no custom route is longer, so a packet at or past the
// bound that is still on its route (not a fault detour — detoured
// packets set Rerouted and are exempt from TTL monitoring) witnesses a
// routing bug. The simulator's hop-ttl monitor uses this as the
// per-packet TTL when the chaos engine arms it.
func (r *DSNSourceRouted) HopBound() int { return r.d.RoutingDiameterBound() }

// Candidates implements Router. The custom routing is deterministic, so
// exactly one candidate is returned, marked Escape so that a blocked
// packet simply waits for it. Under faults the single candidate may
// instead be the next hop of a ring-only detour (see UpdateFaults).
func (r *DSNSourceRouted) Candidates(st PacketState, sw int, buf []Candidate) []Candidate {
	if int32(sw) == st.DstSw {
		return buf
	}
	if st.RtState&dsnDetour != 0 {
		return r.detourCandidates(st, sw, buf)
	}
	last := core.Hop{
		Phase: core.Phase(st.RtState >> dsnPhaseShift & 3),
		Class: core.LinkClass(st.RtState >> dsnClassShift & 7),
	}
	h, _ := r.d.NextHop(sw, int(st.DstSw), last)
	vc, _ := ClassVC(h.Class) // NextHop emits mapped classes only
	pin := int32(0)
	if e, need := r.d.DedicatedWire(h); need && e >= 0 {
		pin = int32(e) + 1
	}
	if r.faulted {
		if r.swDead[st.DstSw] {
			return buf // destination gone; transport times the packet out
		}
		alive, ok := r.usableEdge(sw, int(h.To), pin)
		if !ok {
			// The planned hop is dead under us: re-source onto the ring,
			// preferring the direction with the shorter surviving walk.
			st.RtState = dsnDetour
			if 2*r.d.ClockwiseDist(sw, int(st.DstSw)) > r.d.N {
				st.RtState |= dsnCCW
			}
			return r.detourCandidates(st, sw, buf)
		}
		pin = alive
	}
	return append(buf, Candidate{
		Next: h.To, VC: vc, Escape: true, Edge: pin,
		NewState: uint8(h.Phase)<<dsnPhaseShift | uint8(h.Class)<<dsnClassShift,
	})
}

// detourCandidates offers the next ring hop of a fault detour. If the
// preferred ring direction is cut at this switch, the packet reverses
// once; if both directions are dead here it gets nothing and drains via
// the transport timeout.
func (r *DSNSourceRouted) detourCandidates(st PacketState, sw int, buf []Candidate) []Candidate {
	for try := 0; try < 2; try++ {
		h := r.d.DetourHop(sw, st.RtState&dsnCCW == 0)
		if vc, err := ClassVC(h.Class); err == nil {
			if edge, ok := r.usableEdge(sw, int(h.To), 0); ok {
				return append(buf, Candidate{
					Next: h.To, VC: vc, Escape: true, Detour: true,
					Edge: edge, NewState: st.RtState,
				})
			}
		}
		st.RtState ^= dsnCCW // this ring direction is cut here; reverse
	}
	return buf
}

// usableEdge resolves the physical edge a fault-tolerant hop rides. A
// pinned dedicated link (DSN-E Up/Extra) that died makes the hop
// unusable — substituting the parallel ring wire would put the class on
// a channel outside the verified deadlock-free CDG. An unpinned hop may
// use any surviving parallel wire to the neighbor.
func (r *DSNSourceRouted) usableEdge(sw, to int, pin int32) (int32, bool) {
	if !r.faulted {
		return pin, true
	}
	if r.swDead[to] {
		return 0, false
	}
	if pin > 0 {
		if r.edgeDead[pin-1] {
			return 0, false
		}
		return pin, true
	}
	for _, h := range r.d.Graph().Neighbors(sw) {
		if int(h.To) == to && !r.edgeDead[h.Edge] {
			return h.Edge + 1, true
		}
	}
	return 0, false
}
