package routing

import (
	"fmt"
	"sort"

	"dsnet/internal/graph"
)

// UpDown implements up*/down* routing [13][24]: links are oriented by a
// BFS spanning tree from a root (toward-root is "up"; ties broken by lower
// switch ID), and a legal path traverses zero or more up links followed by
// zero or more down links. The orientation is acyclic, so restricting an
// escape virtual channel to up*/down* paths makes any adaptive scheme
// layered on top deadlock-free (Duato's theory).
//
// For every (current, destination, descended) state the precomputed
// tables give one deterministic shortest legal next hop.
type UpDown struct {
	g    *graph.Graph
	n    int
	Root int

	order []int32 // (bfsLevel, id) rank per switch; up = decreasing rank

	// nextAny[u*n+dst]: next hop on a shortest legal path when the packet
	// has not descended yet; nextDown[u*n+dst]: next hop when it has
	// (down moves only). -1 when no legal continuation exists.
	nextAny  []int32
	nextDown []int32
	// moveIsDown[u*n+dst]: whether the nextAny hop is a down traversal
	// (after which the packet must keep descending).
	moveIsDown []bool

	// maxHops is the longest shortest legal path over all reachable
	// pairs: the up*/down* routing diameter of this orientation.
	maxHops int32
}

// MaxHops returns the up*/down* routing diameter: the hop count of the
// longest route the tables will ever produce. Every packet following
// NextHop from any source reaches its destination in at most MaxHops
// hops, which makes it a sound TTL bound for runtime monitors. Pairs
// disconnected by faults (partial builds) do not contribute.
func (u *UpDown) MaxHops() int { return int(u.maxHops) }

// NewUpDown builds up*/down* tables for g rooted at root. The graph must
// be connected.
func NewUpDown(g *graph.Graph, root int) (*UpDown, error) {
	n := g.N()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("routing: up*/down* root %d out of range [0,%d)", root, n)
	}
	level := g.BFS(root)
	for v, l := range level {
		if l == graph.Unreachable {
			return nil, fmt.Errorf("routing: up*/down* needs a connected graph; switch %d unreachable from root", v)
		}
	}
	return buildUpDown(g, root, level), nil
}

// Surviving derives the up*/down* escape of a fault-degraded fabric:
// the subgraph of g without dead edges and without edges that touch a
// dead switch, and its partial table rooted at the lowest-ID live
// switch (the last switch when every switch is dead, so the root is
// always in range). It is the one rebuild behind every fault-aware
// escape: netsim.DuatoUpDown, multipath.Router, recovery.Escape and
// verify's degraded certificates. Nil or short masks count as alive.
func Surviving(g *graph.Graph, edgeDead, swDead []bool) (*graph.Graph, *UpDown) {
	dead := func(mask []bool, i int) bool { return i < len(mask) && mask[i] }
	alive := g.Subgraph(func(e int) bool {
		ed := g.Edge(e)
		return !dead(edgeDead, e) && !dead(swDead, int(ed.U)) && !dead(swDead, int(ed.V))
	})
	root := 0
	for root < g.N()-1 && dead(swDead, root) {
		root++
	}
	return alive, buildUpDown(alive, root, alive.BFS(root))
}

func buildUpDown(g *graph.Graph, root int, level []int32) *UpDown {
	n := g.N()
	u := &UpDown{
		g: g, n: n, Root: root,
		order:      make([]int32, n),
		nextAny:    make([]int32, n*n),
		nextDown:   make([]int32, n*n),
		moveIsDown: make([]bool, n*n),
	}
	// Rank switches by (BFS level, ID): up traversals strictly decrease
	// the rank, so the up digraph is acyclic. Unreachable switches
	// (level -1, partial builds only) rank after every reachable one.
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	rankLevel := func(v int) int32 {
		if level[v] == graph.Unreachable {
			return int32(n) // deeper than any BFS level
		}
		return level[v]
	}
	sort.Slice(ids, func(a, b int) bool {
		if rankLevel(ids[a]) != rankLevel(ids[b]) {
			return rankLevel(ids[a]) < rankLevel(ids[b])
		}
		return ids[a] < ids[b]
	})
	for rank, id := range ids {
		u.order[id] = int32(rank)
	}
	// One scratch block serves every destination: buildDst overwrites
	// all of it.
	scratch, adown := make([]int32, 4*n), make([]bool, n)
	for dst := 0; dst < n; dst++ {
		u.buildDst(dst, ids, scratch, adown)
	}
	return u
}

// IsUp reports whether traversing from a to b is an up move.
func (u *UpDown) IsUp(a, b int) bool { return u.order[b] < u.order[a] }

// buildDst fills the next-hop tables toward dst. ids holds all switches in
// ascending rank order (root first). scratch (4n) and adown (n) are
// working space; their contents on entry do not matter.
func (u *UpDown) buildDst(dst int, ids []int, scratch []int32, adown []bool) {
	n := u.n
	const inf = int32(1) << 30
	ddist, dnext, full, anext := scratch[:n], scratch[n:2*n], scratch[2*n:3*n], scratch[3*n:]
	// ddist[v]: shortest down-only distance from v to dst. A down move
	// from v goes to a w of higher rank, so scanning ranks in descending
	// order settles every down-neighbour first:
	// ddist[v] = 1 + min over down-neighbours w of ddist[w].
	for i := range ddist {
		ddist[i], dnext[i] = inf, -1
	}
	ddist[dst] = 0
	for i := n - 1; i >= 0; i-- {
		v := ids[i]
		if v == dst {
			continue
		}
		for _, h := range u.g.Neighbors(v) {
			w := int(h.To)
			if u.order[w] > u.order[v] && ddist[w]+1 < ddist[v] { // down move
				ddist[v] = ddist[w] + 1
				dnext[v] = h.To
			}
		}
	}
	// full[v]: shortest legal (up* then down*) distance. An up move from v
	// goes to w with rank(w) < rank(v), so process ranks in ASCENDING
	// order; full[v] = min(ddist[v], 1 + min over up-neighbors full[w]).
	for i := 0; i < n; i++ {
		v := ids[i]
		full[v] = ddist[v]
		anext[v] = dnext[v]
		adown[v] = dnext[v] >= 0
		if v == dst {
			full[v], anext[v], adown[v] = 0, -1, false
			continue
		}
		for _, h := range u.g.Neighbors(v) {
			w := int(h.To)
			if u.order[w] < u.order[v] && full[w]+1 < full[v] { // up move
				full[v] = full[w] + 1
				anext[v] = h.To
				adown[v] = false
			}
		}
	}
	base := dst // column dst of row-major [u*n+dst]
	for v := 0; v < n; v++ {
		u.nextAny[v*n+base] = anext[v]
		u.nextDown[v*n+base] = dnext[v]
		u.moveIsDown[v*n+base] = adown[v]
		if full[v] < inf && full[v] > u.maxHops {
			u.maxHops = full[v]
		}
	}
}

// NextHop returns the next switch on the deterministic shortest legal
// up*/down* path from cur to dst, given whether the packet has already
// taken a down move, plus whether this hop is itself a down move.
// It returns (-1, false) when cur == dst.
func (u *UpDown) NextHop(cur, dst int, descended bool) (next int, down bool) {
	if cur == dst {
		return -1, false
	}
	if descended {
		nh := u.nextDown[cur*u.n+dst]
		return int(nh), true
	}
	return int(u.nextAny[cur*u.n+dst]), u.moveIsDown[cur*u.n+dst]
}

// Path materializes the full up*/down* route from s to t (inclusive).
func (u *UpDown) Path(s, t int) ([]int, error) {
	return u.AppendPath(nil, s, t)
}

// AppendPath appends the up*/down* route from s to t (inclusive) to buf
// and returns the extended slice, so a caller that routes many pairs can
// reuse one buffer. On error the returned slice still holds buf's
// storage, for reuse.
func (u *UpDown) AppendPath(buf []int, s, t int) ([]int, error) {
	path := append(buf, s)
	cur, descended := s, false
	for cur != t {
		next, down := u.NextHop(cur, t, descended)
		if next < 0 {
			return path[:len(buf)], fmt.Errorf("routing: up*/down* has no continuation at %d toward %d (descended=%v)", cur, t, descended)
		}
		descended = descended || down
		cur = next
		path = append(path, cur)
		if len(path)-len(buf) > 2*u.n {
			return path[:len(buf)], fmt.Errorf("routing: up*/down* path %d->%d did not terminate", s, t)
		}
	}
	return path, nil
}

// PathLen returns the up*/down* route length in hops.
func (u *UpDown) PathLen(s, t int) (int, error) {
	p, err := u.Path(s, t)
	if err != nil {
		return 0, err
	}
	return len(p) - 1, nil
}
