package routing

import (
	"fmt"
	"sort"
)

// ChannelHop is one traversal of a directed channel: a physical link
// direction plus the channel class (virtual channel / link group) it
// rides. The deadlock analysis of Section V.A operates on these.
type ChannelHop struct {
	From, To int32
	Class    uint8
}

func (h ChannelHop) key() uint64 {
	return uint64(uint32(h.From))<<40 | uint64(uint32(h.To))<<8 | uint64(h.Class)
}

// String formats the channel for diagnostics.
func (h ChannelHop) String() string {
	return fmt.Sprintf("%d->%d/%d", h.From, h.To, h.Class)
}

// CDG is a channel dependency graph: vertices are directed channels, and
// an edge c1 -> c2 records that some route holds c1 while requesting c2.
// By Dally & Seitz's theorem, a routing function is deadlock-free if its
// CDG is acyclic.
type CDG struct {
	index    map[uint64]int32
	channels []ChannelHop
	deps     [][]int32
	depSet   map[uint64]struct{}
	// classes is the number of channel classes the recorded graph
	// stands for: 1 until Lift.
	classes int
}

// NewCDG returns an empty channel dependency graph.
func NewCDG() *CDG {
	return &CDG{index: make(map[uint64]int32), depSet: make(map[uint64]struct{}), classes: 1}
}

func (c *CDG) channel(h ChannelHop) int32 {
	if c.classes != 1 {
		panic("routing: a lifted CDG is read-only")
	}
	if id, ok := c.index[h.key()]; ok {
		return id
	}
	id := int32(len(c.channels))
	c.index[h.key()] = id
	c.channels = append(c.channels, h)
	c.deps = append(c.deps, nil)
	return id
}

// AddChannel registers a channel even when no dependency touches it
// (single-hop routes still occupy their channel).
func (c *CDG) AddChannel(h ChannelHop) { c.channel(h) }

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
// channels.
func (c *CDG) addDependency(f, t int32) {
	depKey := uint64(uint32(f))<<32 | uint64(uint32(t))
	if _, dup := c.depSet[depKey]; dup {
		return
	}
	c.depSet[depKey] = struct{}{}
	c.deps[f] = append(c.deps[f], t)
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
	if k < 1 || k > 256 || c.classes != 1 {
		panic(fmt.Sprintf("routing: cannot lift a %d-class CDG to %d classes", c.classes, k))
	}
	for _, h := range c.channels {
		if h.Class != 0 {
			panic(fmt.Sprintf("routing: cannot lift a CDG that records channel %v", h))
		}
	}
	c.classes = k
}

// Channels returns the number of distinct channels observed.
func (c *CDG) Channels() int { return len(c.channels) * c.classes }

// Dependencies returns the number of distinct dependencies observed.
func (c *CDG) Dependencies() int { return len(c.depSet) * c.classes * c.classes }

// hopLess orders channels lexicographically by (From, To, Class); it is
// the ordering behind FindCycle's determinism guarantee.
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
// channel comes first (and, the cycle being closed, also last). The
// dsnverify certification reports rely on this to stay byte-identical
// across runs and route-enumeration orders. A lifted CDG reports the
// class-0 witness of its product (Lift).
func (c *CDG) FindCycle() []ChannelHop {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	n := len(c.channels)
	lessID := func(a, b int32) bool { return hopLess(c.channels[a], c.channels[b]) }
	starts := make([]int32, n)
	for i := range starts {
		starts[i] = int32(i)
	}
	sort.Slice(starts, func(i, j int) bool { return lessID(starts[i], starts[j]) })
	deps := make([][]int32, n)
	for v := range deps {
		if len(c.deps[v]) == 0 {
			continue
		}
		deps[v] = append([]int32(nil), c.deps[v]...)
		d := deps[v]
		sort.Slice(d, func(i, j int) bool { return lessID(d[i], d[j]) })
	}
	color := make([]uint8, n)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	type frame struct {
		node int32
		next int
	}
	for _, start := range starts {
		if color[start] != white {
			continue
		}
		stack := []frame{{node: start}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(deps[f.node]) {
				child := deps[f.node][f.next]
				f.next++
				switch color[child] {
				case white:
					color[child] = gray
					parent[child] = f.node
					stack = append(stack, frame{node: child})
				case gray:
					// Reconstruct the cycle child -> ... -> f.node -> child.
					var cyc []ChannelHop
					cyc = append(cyc, c.channels[child])
					for v := f.node; v != -1; v = parent[v] {
						cyc = append(cyc, c.channels[v])
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
