// Package core implements the paper's primary contribution: the
// Distributed Shortcut Network (DSN) topology family and its custom
// three-phase routing algorithm.
//
// A DSN-x-n arranges n switches on a ring and assigns each switch a level
// in 1..p (p = ceil(log2 n)) periodically by ID. Every switch at level
// l <= x owns one "level-l shortcut" to the clockwise-nearest switch of
// level l+1 at ring distance at least ceil(n/2^l). A group of p adjacent
// switches (a "super node") therefore collectively owns the full ladder of
// distance-halving shortcuts that DLN-log n gives to every single switch,
// which is what cuts the aggregate cable length by a Theta(log n) factor
// while preserving a logarithmic diameter (Theorems 1 and 2 of the paper).
//
// The package also implements the paper's Section V extensions: the
// deadlock-free DSN-E/DSN-V variants (dedicated Up and Extra channels),
// DSN-D-x (additional short links that cut the PRE-WORK/FINISH walks), and
// the flexible-size construction with major/minor switches.
package core

import (
	"fmt"
	"math/bits"

	"dsnet/internal/graph"
)

// Variant identifies which member of the DSN family an instance is.
type Variant uint8

// DSN family members.
const (
	VariantBasic Variant = iota // DSN-x-n of Section IV
	VariantE                    // DSN-E: physical Up + Extra links (Section V.A)
	VariantV                    // DSN-V: same channels realised as VCs (Section V.A)
	VariantD                    // DSN-D-x: added short links (Section V.B)
)

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantBasic:
		return "DSN"
	case VariantE:
		return "DSN-E"
	case VariantV:
		return "DSN-V"
	case VariantD:
		return "DSN-D"
	default:
		return fmt.Sprintf("variant(%d)", uint8(v))
	}
}

// DSN is a constructed Distributed Shortcut Network instance.
type DSN struct {
	N       int     // number of switches
	X       int     // size of the shortcut ladder, 1 <= X <= P-1
	P       int     // ceil(log2 N): levels per super node
	R       int     // N mod P: size of the trailing incomplete super node
	Variant Variant // which family member this instance is

	// Q is the short-link spacing for VariantD instances and 0 otherwise.
	Q int

	g        *graph.Graph
	shortcut []int32 // outgoing shortcut target per switch, -1 if none
	hasUp    []bool  // VariantE/V: switch has an uphill channel to its pred
}

// CeilLog2 returns ceil(log2(n)) for n >= 1 (0 for n == 1).
func CeilLog2(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("core: CeilLog2(%d)", n))
	}
	if n == 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// New builds the basic DSN-x-n topology of Section IV.B.
// It requires n >= 8 and 1 <= x <= p-1 where p = ceil(log2 n).
func New(n, x int) (*DSN, error) {
	return build(n, x, VariantBasic, 0)
}

// NewE builds DSN-E: the basic topology with x fixed to p-1, one physical
// Up link per switch whose predecessor is in the same super node, and 2p
// Extra links duplicating ring links (i, i-1) for i = 1..2p. n must be a
// multiple of p so that every super node has a full shortcut ladder.
func NewE(n int) (*DSN, error) {
	if n < 8 {
		return nil, fmt.Errorf("core: DSN-E needs n >= 8, got %d", n)
	}
	p := CeilLog2(n)
	if n%p != 0 {
		return nil, fmt.Errorf("core: DSN-E requires n to be a multiple of p=%d, got n=%d", p, n)
	}
	return build(n, p-1, VariantE, 0)
}

// NewV builds DSN-V: identical wiring to the basic DSN-(p-1) topology; the
// Up, Extra and finishing channels exist as virtual channels over the ring
// links rather than dedicated cables. Routing and deadlock analysis are
// identical to DSN-E; only the physical edge set differs.
func NewV(n int) (*DSN, error) {
	if n < 8 {
		return nil, fmt.Errorf("core: DSN-V needs n >= 8, got %d", n)
	}
	p := CeilLog2(n)
	if n%p != 0 {
		return nil, fmt.Errorf("core: DSN-V requires n to be a multiple of p=%d, got n=%d", p, n)
	}
	return build(n, p-1, VariantV, 0)
}

// NewD builds DSN-D-k of Section V.B: a basic DSN-x with
// x = p - ceil(log2 p) (dropping the unhelpful shortest shortcuts) plus
// short links joining every pair of ring positions q apart, q = ceil(p/k),
// which bounds the local PRE-WORK/FINISH walks by roughly q instead of p.
func NewD(n, k int) (*DSN, error) {
	if n < 8 {
		return nil, fmt.Errorf("core: DSN-D needs n >= 8, got %d", n)
	}
	p := CeilLog2(n)
	if k < 1 {
		return nil, fmt.Errorf("core: DSN-D needs k >= 1, got %d", k)
	}
	x := p - CeilLog2(p)
	if x < 1 {
		x = 1
	}
	if x > p-1 {
		x = p - 1
	}
	q := ceilDiv(p, k)
	if q < 2 {
		return nil, fmt.Errorf("core: DSN-D-%d on n=%d gives short-link spacing q=%d < 2", k, n, q)
	}
	return build(n, x, VariantD, q)
}

func build(n, x int, variant Variant, q int) (*DSN, error) {
	if n < 8 {
		return nil, fmt.Errorf("core: DSN needs n >= 8, got %d", n)
	}
	p := CeilLog2(n)
	if x < 1 || x > p-1 {
		return nil, fmt.Errorf("core: DSN-x needs 1 <= x <= p-1 = %d, got x=%d", p-1, x)
	}
	d := &DSN{
		N:        n,
		X:        x,
		P:        p,
		R:        n % p,
		Variant:  variant,
		Q:        q,
		g:        graph.New(n),
		shortcut: make([]int32, n),
	}
	// Ring links.
	for i := 0; i < n; i++ {
		d.g.AddEdge(i, (i+1)%n, graph.KindRing)
	}
	// Level-l shortcuts for every switch at level l <= x.
	for i := 0; i < n; i++ {
		d.shortcut[i] = -1
		l := d.LevelOf(i)
		if l > x {
			continue
		}
		j := d.shortcutTarget(i, l)
		if j < 0 {
			continue // degenerate tiny-n case: no valid target exists
		}
		d.shortcut[i] = int32(j)
		d.g.AddLeveledEdge(i, j, graph.KindShortcut, int16(l))
	}
	switch variant {
	case VariantE:
		d.hasUp = make([]bool, n)
		// One Up link per switch whose predecessor is in the same super
		// node (level >= 2), i.e. a dedicated uphill channel.
		for i := 0; i < n; i++ {
			if i%p >= 1 {
				d.hasUp[i] = true
				d.g.AddEdge(i, i-1, graph.KindUp)
			}
		}
		// 2p Extra links (i, i-1) for i = 1..2p, breaking the FINISH cycle
		// around the ring seam.
		for i := 1; i <= 2*p && i < n; i++ {
			d.g.AddEdge(i, i-1, graph.KindExtra)
		}
	case VariantV:
		d.hasUp = make([]bool, n)
		for i := 0; i < n; i++ {
			if i%p >= 1 {
				d.hasUp[i] = true
			}
		}
	case VariantD:
		// Short links (iq, (i+1)q) around the whole ring (Section V.B).
		w := ceilDiv(n, q) - 1
		for i := 0; i <= w; i++ {
			u := (i * q) % n
			v := ((i + 1) * q) % n
			if u != v {
				d.g.AddEdgeOnce(u, v, graph.KindShort)
			}
		}
	}
	return d, nil
}

// shortcutTarget returns the clockwise-nearest switch of level l+1 at ring
// distance >= ceil(n/2^l) from i, or -1 if no such switch exists (possible
// only for degenerate tiny rings).
func (d *DSN) shortcutTarget(i, l int) int {
	minDist := ceilDiv(d.N, 1<<uint(l))
	for dist := minDist; dist < d.N; dist++ {
		j := (i + dist) % d.N
		if j%d.P == l { // LevelOf(j) == l+1
			return j
		}
	}
	return -1
}

// LevelOf returns the level (1..p) of switch i: levels are assigned
// periodically by ID, level = i mod p + 1.
func (d *DSN) LevelOf(i int) int { return i%d.P + 1 }

// HeightOf returns p + 1 - level: the higher a switch, the farther its
// shortcut reaches.
func (d *DSN) HeightOf(i int) int { return d.P + 1 - d.LevelOf(i) }

// Shortcut returns the outgoing shortcut target of switch i, or -1 if i
// has none (level > x).
func (d *DSN) Shortcut(i int) int { return int(d.shortcut[i]) }

// HasUp reports whether switch i has an uphill channel to its predecessor
// (always false for the basic variant).
func (d *DSN) HasUp(i int) bool { return d.hasUp != nil && d.hasUp[i] }

// DedicatedWire returns the physical link a DSN-E hop must ride: Up hops
// ride their KindUp link and Extra hops their KindExtra link, never the
// parallel ring wire. need is false for the other classes and variants,
// whose hops may ride any wire to the next switch; edge is -1 when a
// needed wire is missing.
func (d *DSN) DedicatedWire(h Hop) (edge int, need bool) {
	if d.Variant != VariantE {
		return -1, false
	}
	var want graph.EdgeKind
	switch h.Class {
	case ClassUp:
		want = graph.KindUp
	case ClassExtraPred, ClassExtraSucc:
		want = graph.KindExtra
	default:
		return -1, false
	}
	for _, half := range d.g.Neighbors(int(h.From)) {
		if half.To == h.To && d.g.Edge(int(half.Edge)).Kind == want {
			return int(half.Edge), true
		}
	}
	return -1, true
}

// Succ returns the clockwise ring neighbor of i.
func (d *DSN) Succ(i int) int { return (i + 1) % d.N }

// Pred returns the counterclockwise ring neighbor of i.
func (d *DSN) Pred(i int) int { return (i - 1 + d.N) % d.N }

// Graph returns the underlying undirected multigraph. The graph is owned
// by the DSN and must not be mutated.
func (d *DSN) Graph() *graph.Graph { return d.g }

// ClockwiseDist returns the clockwise ring distance from u to v.
func (d *DSN) ClockwiseDist(u, v int) int { return ((v-u)%d.N + d.N) % d.N }

// SuperNodeOf returns the index of the super node containing switch i
// (groups of p consecutive IDs; the last group may be incomplete).
func (d *DSN) SuperNodeOf(i int) int { return i / d.P }

// SuperNodes returns the number of super nodes, counting a trailing
// incomplete one.
func (d *DSN) SuperNodes() int { return ceilDiv(d.N, d.P) }

// String identifies the instance in the paper's naming style.
func (d *DSN) String() string {
	switch d.Variant {
	case VariantD:
		return fmt.Sprintf("DSN-D(q=%d)-%d-%d", d.Q, d.X, d.N)
	case VariantE, VariantV:
		return fmt.Sprintf("%s-%d", d.Variant, d.N)
	default:
		return fmt.Sprintf("DSN-%d-%d", d.X, d.N)
	}
}

// DiameterBound returns the paper's Theorem 1(b) upper bound 2.5p + r,
// valid for x > p - log p.
func (d *DSN) DiameterBound() float64 { return 2.5*float64(d.P) + float64(d.R) }

// RoutingDiameterBound returns the Theorem 1(c) upper bound 3p + r on the
// length of routes produced by the custom routing algorithm, valid for
// x > p - log p.
func (d *DSN) RoutingDiameterBound() int { return 3*d.P + d.R }

// BoundsApply reports whether Theorems 1-2's preconditions hold for this
// instance (x > p - log p).
func (d *DSN) BoundsApply() bool { return d.X > d.P-CeilLog2(d.P) }

// TotalShortcutRingSpan returns the sum over all shortcuts of their
// clockwise ring span, the quantity Theorem 2(b) bounds by n^2/p when the
// ring is laid out on a line with unit spacing.
func (d *DSN) TotalShortcutRingSpan() int {
	total := 0
	for i, j := range d.shortcut {
		if j >= 0 {
			total += d.ClockwiseDist(i, int(j))
		}
	}
	return total
}
