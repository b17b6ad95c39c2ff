package multipath

import (
	"fmt"
	"slices"

	"dsnet/internal/graph"
	"dsnet/internal/netsim"
	"dsnet/internal/routing"
)

// Selector chooses which of a pair's disjoint paths each packet rides.
type Selector uint8

const (
	// SelectorStatic sprays per flow: a seeded hash of (src, dst) pins
	// every packet of a pair to one path, so flows never reorder but load
	// balance only across flows.
	SelectorStatic Selector = iota
	// SelectorRR sprays per packet: packet i of the fabric takes path
	// i mod k, balancing within a flow at the cost of reordering.
	SelectorRR
	// SelectorAdaptive offers the first hops of ALL live paths at the
	// source and lets the engine's credit comparison pick the least
	// loaded one — the same per-port queue-depth feedback both netsim
	// engines already use to arbitrate Duato-style adaptive candidates.
	SelectorAdaptive
)

// SelectorNames lists the CLI spellings in Selector order.
var SelectorNames = []string{"static", "rr", "adaptive"}

// ParseSelector maps a CLI spelling to its Selector.
func ParseSelector(s string) (Selector, error) {
	for i, name := range SelectorNames {
		if s == name {
			return Selector(i), nil
		}
	}
	return 0, fmt.Errorf("multipath: unknown selector %q (have %v)", s, SelectorNames)
}

// String returns the CLI spelling.
func (s Selector) String() string {
	if int(s) < len(SelectorNames) {
		return SelectorNames[s]
	}
	return fmt.Sprintf("selector(%d)", uint8(s))
}

// Config parameterizes the multipath router.
type Config struct {
	K        int      // paths per pair (1..MaxK)
	VCs      int      // virtual channels; VC 0 is the escape channel, so >= 2
	Selector Selector // path selection policy
	Seed     uint64   // seeds the static per-flow hash
}

// RtState layout. Bits 4-7 carry the selected path index + 1 (0 =
// unassigned, so a freshly injected or reinjected packet re-selects).
// Bit 1 latches a divert onto the up*/down* escape network: once a
// packet leaves its source route it stays on the escape until delivery,
// which keeps the deadlock argument two-layer (see DESIGN.md). Bit 0 is
// the usual up*/down* descent latch for the escape walk.
const (
	mpDescended uint8 = 1 << 0
	mpDiverted  uint8 = 1 << 1
	mpPathShift       = 4
)

func pathBits(idx int) uint8     { return uint8(idx+1) << mpPathShift }
func pathIndex(state uint8) int  { return int(state>>mpPathShift) - 1 }
func descended(state uint8) bool { return state&mpDescended != 0 }

func descBit(d bool) uint8 {
	if d {
		return mpDescended
	}
	return 0
}

// Router is the source-routed multipath scheme: per-pair edge-disjoint
// path tables from BuildTable, one of three seeded selectors at the
// source, and a Duato-style up*/down* escape on VC 0 so every candidate
// set stays inside a Dally–Seitz-certifiable channel dependency graph.
// It implements netsim.Router, netsim.FaultAware, netsim.HopBounder and
// netsim.PathIndexer.
type Router struct {
	g   *graph.Graph
	n   int
	tab *Table
	cfg Config

	ud, ud0 *routing.UpDown

	// liveMask[s*n+t] bit i is set while path i of the pair survives the
	// current fault set; fullMask is the pristine value.
	liveMask []uint16
	fullMask []uint16

	edgeDead []bool
	swDead   []bool
	faulted  bool
}

// New builds the multipath router for g: the k-shortest edge-disjoint
// path table plus the fault-free up*/down* escape tree rooted at switch
// 0. Deterministic for fixed (g, cfg).
func New(g *graph.Graph, cfg Config) (*Router, error) {
	if cfg.VCs < 2 {
		return nil, fmt.Errorf("multipath: need >= 2 VCs (VC 0 is the escape), got %d", cfg.VCs)
	}
	tab, err := BuildTable(g, cfg.K)
	if err != nil {
		return nil, err
	}
	return NewWithTable(g, tab, cfg)
}

// NewWithTable builds the router around a precomputed table (the table
// build dominates construction cost, so sweeps reuse one table across
// selectors).
func NewWithTable(g *graph.Graph, tab *Table, cfg Config) (*Router, error) {
	if cfg.VCs < 2 {
		return nil, fmt.Errorf("multipath: need >= 2 VCs (VC 0 is the escape), got %d", cfg.VCs)
	}
	if tab.N != g.N() {
		return nil, fmt.Errorf("multipath: table sized for %d switches, graph has %d", tab.N, g.N())
	}
	ud, err := routing.NewUpDown(g, 0)
	if err != nil {
		return nil, err
	}
	n := g.N()
	r := &Router{g: g, n: n, tab: tab, cfg: cfg, ud: ud, ud0: ud,
		liveMask: make([]uint16, n*n), fullMask: make([]uint16, n*n)}
	for i := range tab.Sets {
		r.fullMask[i] = uint16(1)<<len(tab.Sets[i].Paths) - 1
	}
	copy(r.liveMask, r.fullMask)
	return r, nil
}

// Table exposes the path table (dsnroute prints it; verify checks it).
func (r *Router) Table() *Table { return r.tab }

// Fingerprint identifies the full routing configuration for harness
// cell keys: table content plus selector, seed, and VC budget.
func (r *Router) Fingerprint() string {
	return fmt.Sprintf("%s/%s/seed%d/vc%d", r.tab.Fingerprint(), r.cfg.Selector, r.cfg.Seed, r.cfg.VCs)
}

// PathIndex implements netsim.PathIndexer: the path the packet was
// sprayed onto, or -1 before selection (or for packets that diverted at
// the source without ever holding a path).
func (r *Router) PathIndex(st netsim.PacketState) int { return pathIndex(st.RtState) }

// HopBound implements netsim.HopBounder: a packet rides at most the
// longest table path, or diverts onto the escape for at most the
// up*/down* routing diameter more. Valid only while the fabric is
// fault-free — under faults escape trees are rebuilt and reinjection
// restarts routes, so chaos targets arm multipath runs with HopTTL 0.
func (r *Router) HopBound() int { return r.tab.MaxHops() + r.ud0.MaxHops() }

// UpdateFaults implements netsim.FaultAware: the escape tree is rebuilt
// on the surviving subgraph rooted at the lowest live switch
// (routing.Surviving), and every pair's live-path mask is recomputed
// (PathSet.LiveMask) so selection (including the free re-selection a
// transport retry gets from its Step/RtState reset) sprays only over
// surviving paths.
func (r *Router) UpdateFaults(edgeDead, swDead []bool) {
	r.edgeDead = append(r.edgeDead[:0], edgeDead...)
	r.swDead = append(r.swDead[:0], swDead...)
	r.faulted = slices.Contains(r.edgeDead, true) || slices.Contains(r.swDead, true)
	if !r.faulted { // fully repaired: restore pristine tables
		r.ud = r.ud0
		copy(r.liveMask, r.fullMask)
		return
	}
	_, r.ud = routing.Surviving(r.g, r.edgeDead, r.swDead)
	for i := range r.tab.Sets {
		r.liveMask[i] = r.tab.Sets[i].LiveMask(r.g, r.edgeDead, r.swDead)
	}
}

// LiveMask returns the paths of ps that survive the fault masks: bit i
// is set while every switch of path i is alive and every hop keeps at
// least one live parallel edge. Router.UpdateFaults sprays over these
// paths. Nil or short masks count as alive.
func (ps *PathSet) LiveMask(g *graph.Graph, edgeDead, swDead []bool) uint16 {
	var live uint16
	for pi, p := range ps.Paths {
		if p.live(g, edgeDead, swDead) {
			live |= 1 << pi
		}
	}
	return live
}

// AnyLive reports whether LiveMask would be non-zero, stopping at the
// first live path; verify counts the pairs it leaves without one.
func (ps *PathSet) AnyLive(g *graph.Graph, edgeDead, swDead []bool) bool {
	for _, p := range ps.Paths {
		if p.live(g, edgeDead, swDead) {
			return true
		}
	}
	return false
}

// live reports whether every switch of p is alive and every hop keeps
// at least one live parallel edge.
func (p Path) live(g *graph.Graph, edgeDead, swDead []bool) bool {
	for i := range p {
		if dead(swDead, int(p[i])) {
			return false
		}
		if i > 0 {
			if _, ok := liveEdge(g, edgeDead, int(p[i-1]), int(p[i])); !ok {
				return false
			}
		}
	}
	return true
}

// liveEdge returns a surviving physical edge between two switches (the
// lowest-index one, for determinism with parallel links).
func liveEdge(g *graph.Graph, edgeDead []bool, u, v int) (int32, bool) {
	best := int32(-1)
	for _, h := range g.Neighbors(u) {
		if int(h.To) == v && !dead(edgeDead, int(h.Edge)) && (best < 0 || h.Edge < best) {
			best = h.Edge
		}
	}
	return best, best >= 0
}

func dead(mask []bool, i int) bool { return i < len(mask) && mask[i] }

// splitmix64 is the seeded per-flow hash of the static selector.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nthLive returns the index of the j-th set bit of mask.
func nthLive(mask uint16, j int) int {
	for i := 0; i < 16; i++ {
		if mask&(1<<i) != 0 {
			if j == 0 {
				return i
			}
			j--
		}
	}
	return -1
}

func popcount16(mask uint16) int {
	c := 0
	for m := mask; m != 0; m &= m - 1 {
		c++
	}
	return c
}

// Candidates implements netsim.Router. Fresh packets select path(s) per
// the configured policy; on-path packets are offered their next
// source-routed hop on the adaptive VCs 1..VCs-1; and every call also
// offers the VC-0 up*/down* escape, whose grant latches the divert bit
// so the packet finishes on the escape network. Faults clear live-path
// bits, and a packet whose path died under it (or whose pair has no
// surviving path) diverts with Detour set.
func (r *Router) Candidates(st netsim.PacketState, sw int, buf []netsim.Candidate) []netsim.Candidate {
	dst := int(st.DstSw)
	if sw == dst {
		return buf
	}
	if st.RtState&mpDiverted != 0 {
		return r.appendEscape(st, sw, buf, false)
	}
	pairIdx := int(st.SrcSw)*r.n + dst
	live := r.liveMask[pairIdx]
	idx := pathIndex(st.RtState)
	if idx < 0 {
		// Fresh (or retried) packet at its source: select.
		if sw != int(st.SrcSw) || live == 0 {
			return r.appendEscape(st, sw, buf, r.faulted)
		}
		ps := &r.tab.Sets[pairIdx]
		nlive := popcount16(live)
		switch r.cfg.Selector {
		case SelectorStatic:
			h := splitmix64(r.cfg.Seed ^ uint64(st.SrcSw)<<32 ^ uint64(uint32(st.DstSw)))
			buf = r.appendPathHead(st, ps, nthLive(live, int(h%uint64(nlive))), buf)
		case SelectorRR:
			buf = r.appendPathHead(st, ps, nthLive(live, int(uint64(st.PktID)%uint64(nlive))), buf)
		case SelectorAdaptive:
			for pi := range ps.Paths {
				if live&(1<<pi) != 0 {
					buf = r.appendPathHead(st, ps, pi, buf)
				}
			}
		}
		return r.appendEscape(st, sw, buf, false)
	}
	// On-path packet: verify the route under it and offer the next hop.
	p := r.tab.Sets[pairIdx].Paths[idx]
	step := int(st.Step)
	if live&(1<<idx) == 0 || step+1 >= len(p) || int(p[step]) != sw {
		// Path died under the packet (or state desynced): divert onto the
		// escape for the rest of the trip.
		return r.appendEscape(st, sw, buf, r.faulted)
	}
	buf = r.appendHop(int(p[step+1]), st.RtState, sw, buf)
	return r.appendEscape(st, sw, buf, false)
}

// appendPathHead offers the first hop of path pi on all adaptive VCs.
func (r *Router) appendPathHead(st netsim.PacketState, ps *PathSet, pi int, buf []netsim.Candidate) []netsim.Candidate {
	if pi < 0 {
		return buf
	}
	return r.appendHop(int(ps.Paths[pi][1]), pathBits(pi), int(st.SrcSw), buf)
}

// appendHop offers one source-routed hop on VCs 1..VCs-1, pinning a
// surviving physical edge when the fabric is degraded.
func (r *Router) appendHop(next int, state uint8, sw int, buf []netsim.Candidate) []netsim.Candidate {
	edge := netsim.EdgeAny
	if r.faulted {
		e, ok := liveEdge(r.g, r.edgeDead, sw, next)
		if !ok {
			return buf // mask said live but the hop is gone; caller's escape covers it
		}
		edge = e + 1
	}
	for vc := 1; vc < r.cfg.VCs; vc++ {
		buf = append(buf, netsim.Candidate{
			Next: int32(next), VC: int8(vc), Edge: edge, NewState: state,
		})
	}
	return buf
}

// appendEscape offers the VC-0 up*/down* escape hop. Taking it latches
// the divert bit (path bits are kept for reorder accounting).
func (r *Router) appendEscape(st netsim.PacketState, sw int, buf []netsim.Candidate, detour bool) []netsim.Candidate {
	next, down := r.ud.NextHop(sw, int(st.DstSw), descended(st.RtState))
	if next < 0 || (r.faulted && r.swDead[next]) {
		return buf
	}
	state := (st.RtState &^ mpDescended) | mpDiverted | descBit(descended(st.RtState) || down)
	return append(buf, netsim.Candidate{
		Next: int32(next), VC: 0, Escape: true, Detour: detour, NewState: state,
	})
}
