package routing

import (
	"fmt"
	"slices"
	"sort"

	"dsnet/internal/graph"
)

// ChannelHop is one traversal of a directed channel: a physical link
// direction plus the channel class (virtual channel / link group) it
// rides. The deadlock analysis of Section V.A operates on these.
type ChannelHop struct {
	From, To int32
	Class    uint8
}

// String formats the channel for diagnostics.
func (h ChannelHop) String() string {
	return fmt.Sprintf("%d->%d/%d", h.From, h.To, h.Class)
}

// CDG is a channel dependency graph: vertices are directed channels, and
// an edge c1 -> c2 records that some route holds c1 while requesting c2.
// By Dally & Seitz's theorem, a routing function is deadlock-free if its
// CDG is acyclic.
//
// A CDG is built for one graph and a number of channel classes, so its
// channel set is known in advance and numbered densely: the channel
// from->to on class c has ID (off[from] + rank of to among from's
// distinct neighbours, ascending) * classes + c. ID order is therefore
// (From, To, Class) order (hopLess), and comparing two channels is
// comparing two integers.
type CDG struct {
	// off[u] is the slot of u's first distinct neighbour in to, and
	// off[n] == len(to).
	off []int32
	to  []int32
	// classes is the number of channel classes per link direction.
	classes int
	// deps[id] lists the channels id has a dependency on, ascending
	// and without duplicates.
	deps [][]int32
	// registered marks the channels a route or AddChannel touched;
	// nchan counts them and ndeps counts the dependencies.
	registered   []bool
	nchan, ndeps int
	// lift is the number of channel classes the recorded graph stands
	// for: 1 until Lift.
	lift int
}

// NewCDG returns an empty channel dependency graph over the links of g
// on classes channel classes (1 to 256). Adding a channel that is not a
// link of g, or that rides a class >= classes, panics. Parallel edges
// between two switches are one link direction.
func NewCDG(g *graph.Graph, classes int) *CDG {
	if classes < 1 || classes > 256 {
		panic(fmt.Sprintf("routing: a CDG needs 1 to 256 channel classes, got %d", classes))
	}
	n := g.N()
	c := &CDG{off: make([]int32, n+1), to: make([]int32, 0, 2*g.M()), classes: classes, lift: 1}
	for u := 0; u < n; u++ {
		start := len(c.to)
		for _, h := range g.Neighbors(u) {
			c.to = append(c.to, h.To)
		}
		slices.Sort(c.to[start:])
		c.to = append(c.to[:start], slices.Compact(c.to[start:])...)
		c.off[u+1] = int32(len(c.to))
	}
	ids := len(c.to) * classes
	c.deps = make([][]int32, ids)
	c.registered = make([]bool, ids)
	return c
}

// id returns the ID of channel h. It panics on a lifted CDG and on a
// channel that is not a link of the CDG's graph at one of its classes.
func (c *CDG) id(h ChannelHop) int32 {
	if c.lift != 1 {
		panic("routing: a lifted CDG is read-only")
	}
	if h.From >= 0 && int(h.From) < len(c.off)-1 && int(h.Class) < c.classes {
		for slot := c.off[h.From]; slot < c.off[h.From+1]; slot++ {
			if c.to[slot] == h.To {
				return slot*int32(c.classes) + int32(h.Class)
			}
		}
	}
	panic(fmt.Sprintf("routing: channel %v is not a link of the CDG's graph on %d classes", h, c.classes))
}

// hop returns the channel with ID id.
func (c *CDG) hop(id int32) ChannelHop {
	slot := id / int32(c.classes)
	from := sort.Search(len(c.off)-1, func(u int) bool { return c.off[u+1] > slot })
	return ChannelHop{From: int32(from), To: c.to[slot], Class: uint8(id % int32(c.classes))}
}

// channel registers h and returns its ID.
func (c *CDG) channel(h ChannelHop) int32 {
	id := c.id(h)
	if !c.registered[id] {
		c.registered[id] = true
		c.nchan++
	}
	return id
}

// AddChannel registers a channel even when no dependency touches it
// (single-hop routes still occupy their channel).
func (c *CDG) AddChannel(h ChannelHop) { c.channel(h) }

// ChannelID registers h as AddChannel does and returns its ID, for
// AddDependencyID: a caller that adds many dependencies on one channel
// looks it up once.
func (c *CDG) ChannelID(h ChannelHop) int32 { return c.channel(h) }

// AddDependencyID is AddDependency on two channels ChannelID returned.
func (c *CDG) AddDependencyID(from, to int32) {
	if c.lift != 1 {
		panic("routing: a lifted CDG is read-only")
	}
	c.addDependency(from, to)
}

// AddDependency records that some route can hold channel `from` while
// requesting channel `to`. Callers enumerating adaptive routing
// functions use it directly to add the cross product of candidate
// channel sets between consecutive hops; duplicate dependencies are
// deduplicated internally.
func (c *CDG) AddDependency(from, to ChannelHop) {
	f := c.channel(from)
	c.addDependency(f, c.channel(to))
}

// addDependency records the dependency f -> t between two registered
// channels by binary insertion into f's sorted list. It grows the list
// with append rather than slices.Insert, whose growth allocates one more
// temporary under -race, so the allocation counts that tests bound are
// the same with and without the race detector.
func (c *CDG) addDependency(f, t int32) {
	d := c.deps[f]
	i, dup := slices.BinarySearch(d, t)
	if dup {
		return
	}
	d = append(d, 0)
	copy(d[i+1:], d[i:])
	d[i] = t
	c.deps[f] = d
	c.ndeps++
}

// AddRoute records the channel sequence of one route: every consecutive
// pair of hops contributes a dependency. Each hop's channel is looked
// up once.
func (c *CDG) AddRoute(hops []ChannelHop) {
	prev := int32(-1)
	for _, h := range hops {
		id := c.channel(h)
		if prev >= 0 {
			c.addDependency(prev, id)
		}
		prev = id
	}
}

// Lift makes c stand for its product with k channel classes: every
// recorded channel on each of the classes 0..k-1, and a dependency
// between every class of its source and every class of its target. That
// is the CDG of a router that may hold any class of one hop while
// requesting any class of the next. c must be recorded at class 0 only,
// and it is read-only once lifted: AddChannel, AddDependency and
// AddRoute panic.
//
// Channels and Dependencies then count the product, k and k² times the
// recorded graph. FindCycle returns the recorded graph's witness
// unchanged, which is the product's: on the product its search would
// visit each channel's class-0 copy first, in the recorded graph's
// order, and reach a class-c copy (c > 0) only after its class-0 twin,
// which has the same successors, finished without a back edge. The
// class-c copy then finds every successor finished and adds nothing, so
// the first back edge and its canonical rotation are the recorded
// graph's (FuzzCDGLift checks this against the materialized product).
func (c *CDG) Lift(k int) {
	if k < 1 || k > 256 || c.lift != 1 {
		panic(fmt.Sprintf("routing: cannot lift a %d-class CDG to %d classes", c.lift, k))
	}
	for id, reg := range c.registered {
		if reg && id%c.classes != 0 {
			panic(fmt.Sprintf("routing: cannot lift a CDG that records channel %v", c.hop(int32(id))))
		}
	}
	c.lift = k
}

// Channels returns the number of distinct channels observed.
func (c *CDG) Channels() int { return c.nchan * c.lift }

// Dependencies returns the number of distinct dependencies observed.
func (c *CDG) Dependencies() int { return c.ndeps * c.lift * c.lift }

// hopLess orders channels lexicographically by (From, To, Class); it is
// the ordering behind FindCycle's determinism guarantee, and channel IDs
// follow it.
func hopLess(a, b ChannelHop) bool {
	if a.From != b.From {
		return a.From < b.From
	}
	if a.To != b.To {
		return a.To < b.To
	}
	return a.Class < b.Class
}

// FindCycle returns a dependency cycle as a channel sequence (first ==
// last), or nil if the CDG is acyclic. Acyclicity certifies deadlock
// freedom for the recorded routes.
//
// Ordering guarantee: FindCycle is a pure function of the channel and
// dependency SETS — the reported cycle does not depend on the order in
// which AddRoute populated the CDG. The search visits channels in
// ascending (From, To, Class) order, explores dependencies in the same
// order, and rotates the reported cycle so its lexicographically least
// channel comes first (and, the cycle being closed, also last). Both
// orders are ascending ID order, which the CDG keeps, so nothing is
// sorted here. The dsnverify certification reports rely on this to stay
// byte-identical across runs and route-enumeration orders. A lifted CDG
// reports the class-0 witness of its product (Lift).
func (c *CDG) FindCycle() []ChannelHop {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	n := len(c.deps)
	color := make([]uint8, n)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	type frame struct {
		node int32
		next int
	}
	var stack []frame
	for start := int32(0); int(start) < n; start++ {
		if !c.registered[start] || color[start] != white {
			continue
		}
		stack = append(stack[:0], frame{node: start})
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(c.deps[f.node]) {
				child := c.deps[f.node][f.next]
				f.next++
				switch color[child] {
				case white:
					color[child] = gray
					parent[child] = f.node
					stack = append(stack, frame{node: child})
				case gray:
					// Reconstruct the cycle child -> ... -> f.node -> child.
					var cyc []ChannelHop
					cyc = append(cyc, c.hop(child))
					for v := f.node; v != -1; v = parent[v] {
						cyc = append(cyc, c.hop(v))
						if v == child {
							break
						}
					}
					// cyc is [child, f.node, ..., child] walking tree
					// parents; reversing yields dependency order with the
					// loop already closed (first == last).
					for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					return canonicalCycle(cyc)
				}
			} else {
				color[f.node] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// canonicalCycle rotates a closed cycle (first == last) so that its
// lexicographically least channel leads, preserving dependency order.
func canonicalCycle(cyc []ChannelHop) []ChannelHop {
	body := cyc[:len(cyc)-1]
	min := 0
	for i := range body {
		if hopLess(body[i], body[min]) {
			min = i
		}
	}
	out := make([]ChannelHop, 0, len(cyc))
	out = append(out, body[min:]...)
	out = append(out, body[:min]...)
	return append(out, body[min])
}
