// Package multipath implements the k-shortest-path source-routing
// subsystem: a Yen-style path enumerator over internal/graph with fully
// deterministic (length, lexicographic) ordering, edge- and
// vertex-disjoint path-set filters, per-pair path tables for the
// simulator's source-routed multipath scheme, and the path-diversity
// metrics (edge-disjoint path count, min cut) that quantify how much
// headroom a topology leaves for path spraying.
//
// Everything in this package is a pure function of its inputs: path sets
// are canonically ordered and canonically encodable (see encode.go), so
// they can participate in content-addressed cache keys and fuzz
// round-trip tests. Determinism is not cosmetic — the simulator's
// bit-identity gates hash these tables into cell keys.
package multipath

import (
	"fmt"
	"slices"

	"dsnet/internal/graph"
)

// MaxK bounds the per-pair path-set size. The simulator encodes the
// selected path index in a 4-bit RtState field (index+1, 0 = unassigned),
// so at most 15 paths are addressable per pair.
const MaxK = 15

// Path is one loopless switch-level route: a vertex sequence from source
// to destination. Hops() = len(p)-1.
type Path []int32

// Hops returns the number of switch-to-switch hops.
func (p Path) Hops() int { return len(p) - 1 }

// Less orders paths canonically: shorter first, lexicographic vertex
// sequence among equals.
func (p Path) Less(q Path) bool {
	if len(p) != len(q) {
		return len(p) < len(q)
	}
	for i := range p {
		if p[i] != q[i] {
			return p[i] < q[i]
		}
	}
	return false
}

// Equal reports elementwise equality.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// hopKey packs a directed vertex pair for disjointness bookkeeping.
func hopKey(u, v int32) int64 { return int64(u)<<32 | int64(uint32(v)) }

// undirectedHopKey normalizes a hop to u < v so both directions collide.
func undirectedHopKey(u, v int32) int64 {
	if u > v {
		u, v = v, u
	}
	return hopKey(u, v)
}

// search is the lexicographically-smallest shortest-path search behind
// KShortest, DisjointShortest and BuildTable. It keeps its distance
// labels, queue and bans from one call to the next, so a caller that
// runs many searches on one graph allocates only the paths it returns.
// Bans are stamped with a generation: a vertex or a directed edge is
// banned while its stamp equals gen, and reset lifts every ban at once.
type search struct {
	g     *graph.Graph
	dist  []int32
	queue []int32
	gen   uint32
	// vert[v] == gen bans v; hop[hopSlot(e, u, v)] == gen bans the
	// traversal u->v of edge e.
	vert, hop []uint32
}

func newSearch(g *graph.Graph) *search {
	return &search{
		g: g, dist: make([]int32, g.N()), queue: make([]int32, 0, g.N()),
		gen: 1, vert: make([]uint32, g.N()), hop: make([]uint32, 2*g.M()),
	}
}

// reset lifts every ban.
func (sr *search) reset() {
	if sr.gen++; sr.gen == 0 {
		clear(sr.vert)
		clear(sr.hop)
		sr.gen = 1
	}
}

// hopSlot is the ban slot of the traversal u->v of edge e: one slot per
// direction, told apart by which endpoint is smaller.
func hopSlot(e, u, v int32) int {
	if u < v {
		return 2 * int(e)
	}
	return 2*int(e) + 1
}

// banVertex bans v until the next reset.
func (sr *search) banVertex(v int32) { sr.vert[v] = sr.gen }

// banHop bans the hop u->v until the next reset. A hop is a step between
// two switches, so the ban covers every parallel edge joining them.
func (sr *search) banHop(u, v int32) {
	for _, h := range sr.g.Neighbors(int(u)) {
		if h.To == v {
			sr.hop[hopSlot(h.Edge, u, v)] = sr.gen
		}
	}
}

// label fills dist with every vertex's hop distance to t under the
// current bans, by a BFS outward from t. With s >= 0 it stops once s is
// labelled, when every vertex nearer to t than s is labelled already;
// with s < 0 it labels every vertex that can reach t.
func (sr *search) label(dist []int32, s, t int) {
	for i := range dist {
		dist[i] = graph.Unreachable
	}
	dist[t] = 0
	queue := append(sr.queue[:0], int32(t))
	for head := 0; head < len(queue) && (s < 0 || dist[s] == graph.Unreachable); head++ {
		x := queue[head]
		for _, h := range sr.g.Neighbors(int(x)) {
			y := h.To
			// Relaxing t-outward from x to y corresponds to the forward
			// walk step y -> x, so that is the hop the ban applies to.
			if dist[y] != graph.Unreachable || sr.vert[y] == sr.gen || sr.hop[hopSlot(h.Edge, y, x)] == sr.gen {
				continue
			}
			dist[y] = dist[x] + 1
			queue = append(queue, y)
		}
	}
	sr.queue = queue
}

// walk returns the greedy forward walk from s to t over dist, which
// label filled under the current bans: at every step the smallest-ID
// unbanned neighbour one hop nearer to t. dist[s] must be labelled.
func (sr *search) walk(dist []int32, s, t int) Path {
	path := make(Path, 0, dist[s]+1)
	path = append(path, int32(s))
	cur := int32(s)
	for cur != int32(t) {
		d := dist[cur]
		next := int32(-1)
		for _, h := range sr.g.Neighbors(int(cur)) {
			w := h.To
			if dist[w] != d-1 || sr.vert[w] == sr.gen || sr.hop[hopSlot(h.Edge, cur, w)] == sr.gen {
				continue
			}
			if next < 0 || w < next {
				next = w
			}
		}
		if next < 0 {
			return nil // cannot happen: dist certified reachability
		}
		path = append(path, next)
		cur = next
	}
	return path
}

// shortest returns the lexicographically-smallest shortest path from s
// to t that avoids the banned vertices and hops, or nil if t is
// unreachable under the bans. Deterministic by construction: a reverse
// BFS from t labels every vertex with its distance to t, then a greedy
// forward walk always picks the smallest-ID neighbour that stays on a
// shortest path.
func (sr *search) shortest(s, t int) Path {
	if s == t {
		return Path{int32(s)}
	}
	if sr.vert[s] == sr.gen || sr.vert[t] == sr.gen {
		return nil
	}
	sr.label(sr.dist, s, t)
	if sr.dist[s] == graph.Unreachable {
		return nil
	}
	return sr.walk(sr.dist, s, t)
}

// KShortest enumerates up to k loopless shortest paths from s to t in
// canonical (length, lexicographic) order using Yen's algorithm with a
// deterministic spur search. Fewer than k paths are returned when the
// graph does not contain them. Parallel edges are collapsed: paths are
// vertex sequences, and a hop between two switches is one path step
// regardless of how many physical wires join them.
func KShortest(g *graph.Graph, s, t, k int) []Path {
	if k < 1 || s == t || s < 0 || t < 0 || s >= g.N() || t >= g.N() {
		return nil
	}
	sr := newSearch(g)
	first := sr.shortest(s, t)
	if first == nil {
		return nil
	}
	shortest := []Path{first}
	seen := map[string]bool{pathKey(first): true}
	var pool []Path // candidate paths not yet promoted
	for len(shortest) < k {
		prev := shortest[len(shortest)-1]
		for j := 0; j < len(prev)-1; j++ {
			root := prev[:j+1]
			sr.reset()
			for _, v := range root[:j] {
				sr.banVertex(v)
			}
			for _, a := range shortest {
				if len(a) > j && samePrefix(a, root) {
					sr.banHop(a[j], a[j+1])
				}
			}
			spur := sr.shortest(int(prev[j]), t)
			if spur == nil {
				continue
			}
			cand := make(Path, 0, j+len(spur))
			cand = append(cand, root[:j]...)
			cand = append(cand, spur...)
			if key := pathKey(cand); !seen[key] {
				seen[key] = true
				pool = append(pool, cand)
			}
		}
		if len(pool) == 0 {
			break
		}
		best := 0
		for i := 1; i < len(pool); i++ {
			if pool[i].Less(pool[best]) {
				best = i
			}
		}
		shortest = append(shortest, pool[best])
		pool = append(pool[:best], pool[best+1:]...)
	}
	return shortest
}

// samePrefix reports whether path a begins with the given root
// (inclusive of the spur vertex at the end of root).
func samePrefix(a, root Path) bool {
	if len(a) < len(root) {
		return false
	}
	for i := range root {
		if a[i] != root[i] {
			return false
		}
	}
	return true
}

// pathKey is the dedup identity of a path inside the Yen candidate pool.
func pathKey(p Path) string {
	b := make([]byte, 0, len(p)*4)
	for _, v := range p {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

// EdgeDisjoint filters a canonically-ordered path list greedily: a path
// is kept iff it shares no hop (undirected switch pair) with any path
// kept before it. With the input in canonical order the result is the
// deterministic greedy edge-disjoint subset seeded by the shortest path.
func EdgeDisjoint(paths []Path) []Path {
	used := make(map[int64]bool)
	var out []Path
	for _, p := range paths {
		ok := true
		for i := 0; i+1 < len(p); i++ {
			if used[undirectedHopKey(p[i], p[i+1])] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for i := 0; i+1 < len(p); i++ {
			used[undirectedHopKey(p[i], p[i+1])] = true
		}
		out = append(out, p)
	}
	return out
}

// VertexDisjoint filters a canonically-ordered path list greedily: a
// path is kept iff it shares no internal vertex with any path kept
// before it (endpoints are shared by construction).
func VertexDisjoint(paths []Path) []Path {
	used := make(map[int32]bool)
	var out []Path
	for _, p := range paths {
		ok := true
		for _, v := range p[1 : len(p)-1] {
			if used[v] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, v := range p[1 : len(p)-1] {
			used[v] = true
		}
		out = append(out, p)
	}
	return out
}

// PathSet is the canonical multipath route set of one ordered pair.
type PathSet struct {
	Src, Dst int32
	Paths    []Path
}

// Canonicalize sorts the paths into canonical (length, lexicographic)
// order in place.
func (ps *PathSet) Canonicalize() {
	for i := 1; i < len(ps.Paths); i++ {
		for j := i; j > 0 && ps.Paths[j].Less(ps.Paths[j-1]); j-- {
			ps.Paths[j], ps.Paths[j-1] = ps.Paths[j-1], ps.Paths[j]
		}
	}
}

// Validate checks structural integrity against the graph: every path
// runs Src to Dst, is loopless, and every hop rides a real edge.
func (ps *PathSet) Validate(g *graph.Graph) error {
	for pi, p := range ps.Paths {
		if len(p) < 2 {
			return fmt.Errorf("multipath: pair %d->%d path %d has %d vertices", ps.Src, ps.Dst, pi, len(p))
		}
		if p[0] != ps.Src || p[len(p)-1] != ps.Dst {
			return fmt.Errorf("multipath: pair %d->%d path %d runs %d->%d", ps.Src, ps.Dst, pi, p[0], p[len(p)-1])
		}
		seen := make(map[int32]bool, len(p))
		for _, v := range p {
			if v < 0 || int(v) >= g.N() {
				return fmt.Errorf("multipath: pair %d->%d path %d visits out-of-range switch %d", ps.Src, ps.Dst, pi, v)
			}
			if seen[v] {
				return fmt.Errorf("multipath: pair %d->%d path %d revisits switch %d", ps.Src, ps.Dst, pi, v)
			}
			seen[v] = true
		}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(int(p[i]), int(p[i+1])) {
				return fmt.Errorf("multipath: pair %d->%d path %d hop %d->%d rides no edge", ps.Src, ps.Dst, pi, p[i], p[i+1])
			}
		}
		if pi > 0 && p.Less(ps.Paths[pi-1]) {
			return fmt.Errorf("multipath: pair %d->%d paths %d,%d out of canonical order", ps.Src, ps.Dst, pi-1, pi)
		}
	}
	return nil
}

// Table holds the per-pair multipath route sets of one graph: Sets[s*N+t]
// is the canonical path set for the ordered pair (s, t) (empty on the
// diagonal and for pairs the graph disconnects).
type Table struct {
	N    int
	K    int // requested paths per pair
	Sets []PathSet
}

// DisjointShortest returns up to k edge-disjoint s-t paths by successive
// masked shortest-path searches: path i+1 is the lexicographically
// smallest shortest path avoiding every hop used by paths 1..i (the same
// masked spur search Yen's algorithm uses, applied whole-path). The
// result is canonically ordered by construction — each successive path
// is at least as long as its predecessor, and among equals lex-greater,
// because it solves the same problem under a superset of the bans.
//
// Plain Yen enumeration is a poor seed for a disjoint filter here: the
// (length, lex) order concentrates the first dozens of paths on shared
// prefixes, so a greedy filter over them rarely finds more than the
// first path. Masking out whole used paths sidesteps that and realizes
// the min-cut bound on regular fabrics (k disjoint paths on a degree-k
// torus).
func DisjointShortest(g *graph.Graph, s, t, k int) []Path {
	if k < 1 || s == t || s < 0 || t < 0 || s >= g.N() || t >= g.N() {
		return nil
	}
	sr := newSearch(g)
	return sr.disjoint(nil, sr.shortest(s, t), s, t, k)
}

// disjoint appends DisjointShortest(s, t, k) to buf, given its first
// path: the unbanned search's, or nil when t is unreachable. It bans the
// hops of each path it keeps, so the search must hold no bans when it
// is called.
func (sr *search) disjoint(buf []Path, first Path, s, t, k int) []Path {
	for p, i := first, 0; p != nil; p = sr.shortest(s, t) {
		buf = append(buf, p)
		if i++; i == k {
			break
		}
		for j := 0; j+1 < len(p); j++ {
			sr.banHop(p[j], p[j+1])
			sr.banHop(p[j+1], p[j])
		}
	}
	return buf
}

// BuildTable computes the multipath routing table of g: for every
// ordered pair, up to k edge-disjoint shortest paths (DisjointShortest).
// The table is a deterministic pure function of (g, k).
//
// One BFS per destination t gives every source its first path: the
// search from s alone stops once s is labelled, when every vertex
// nearer to t is labelled with the same distance, and those are the
// only labels its greedy walk reads. The later, banned searches share
// one search's buffers.
func BuildTable(g *graph.Graph, k int) (*Table, error) {
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("multipath: k=%d outside [1,%d]", k, MaxK)
	}
	n := g.N()
	tab := &Table{N: n, K: k, Sets: make([]PathSet, n*n)}
	sr := newSearch(g)
	toT := make([]int32, n)
	var buf []Path
	for t := 0; t < n; t++ {
		sr.reset()
		sr.label(toT, -1, t)
		for s := 0; s < n; s++ {
			ps := &tab.Sets[s*n+t]
			ps.Src, ps.Dst = int32(s), int32(t)
			if s == t || toT[s] == graph.Unreachable {
				continue
			}
			sr.reset()
			buf = sr.disjoint(buf[:0], sr.walk(toT, s, t), s, t, k)
			ps.Paths = slices.Clone(buf)
		}
	}
	return tab, nil
}

// Set returns the path set for the ordered pair (s, t).
func (t *Table) Set(s, d int) *PathSet { return &t.Sets[s*t.N+d] }

// MaxHops returns the longest path in the table, in hops (0 for an
// empty table).
func (t *Table) MaxHops() int {
	max := 0
	for i := range t.Sets {
		for _, p := range t.Sets[i].Paths {
			if p.Hops() > max {
				max = p.Hops()
			}
		}
	}
	return max
}

// Validate checks every pair's path set against the graph and that
// every pair connected in g has at least one path.
func (t *Table) Validate(g *graph.Graph) error {
	if t.N != g.N() {
		return fmt.Errorf("multipath: table sized for %d switches, graph has %d", t.N, g.N())
	}
	comp, _ := g.Components()
	for s := 0; s < t.N; s++ {
		for d := 0; d < t.N; d++ {
			ps := t.Set(s, d)
			if err := ps.Validate(g); err != nil {
				return err
			}
			if s != d && len(ps.Paths) == 0 && comp[s] == comp[d] {
				return fmt.Errorf("multipath: connected pair %d->%d has no path", s, d)
			}
		}
	}
	return nil
}
