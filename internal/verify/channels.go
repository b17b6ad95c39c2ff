package verify

import (
	"fmt"

	"dsnet/internal/graph"
	"dsnet/internal/routing"
)

// The channel identity used throughout the engine is
// routing.ChannelHop{From, To, Class}: a directed traversal of a link on
// a channel class (a Section V.A LinkClass or a simulator VC).
//
// The VC views work at link granularity: DSN-E's dedicated Up/Extra
// wires are merged into their link direction. That is sound — a cycle in
// the finer wire-level CDG projects onto a closed walk (hence a cycle)
// in the link-level CDG, so link-level acyclicity certifies the
// pinned-edge simulator too, while remaining valid for DSN-V where the
// same classes ride virtual channels over shared wires.

// UpDownChannels builds the CDG of deterministic up*/down* routing with
// packets spread across vcs virtual channels of each hop (vcs = 1 yields
// the pure escape network of the Duato-style adaptive router). Pairs
// that route nothing occupy no channels and are skipped: pairs
// disconnected in g, and — on fault-degraded partial builds — connected
// pairs outside the root's component with no up*/down*-legal path
// (those degrade to timeout-drops in the simulator). An unroutable pair
// inside the root component is still an error.
//
// A packet may hold any VC of one hop while requesting any VC of the
// next, so the CDG is the one-class graph of the routes lifted to vcs
// classes (routing.CDG.Lift): it is built once, at class 0, and is
// read-only.
func UpDownChannels(g *graph.Graph, ud *routing.UpDown, vcs int) (*routing.CDG, error) {
	cdg, _, err := UpDownEscape(g, ud, vcs)
	return cdg, err
}

// UpDownEscape walks an up*/down* table once and returns both halves of
// its escape certificate: the CDG at vcs channel classes and its error,
// as UpDownChannels returns them, and the totality check
// (CheckUpDownTotality).
func UpDownEscape(g *graph.Graph, ud *routing.UpDown, vcs int) (*routing.CDG, CheckResult, error) {
	w, err := walkEscape(g, ud, vcs)
	if err != nil {
		return nil, CheckResult{}, err
	}
	return w.cdg, w.check(), nil
}

// walkEscape walks ud and lifts its CDG to vcs classes; the error is
// UpDownChannels'.
func walkEscape(g *graph.Graph, ud *routing.UpDown, vcs int) (*updownWalk, error) {
	if vcs < 1 || vcs > 256 {
		return nil, fmt.Errorf("verify: up*/down* needs 1 to 256 VCs, got %d", vcs)
	}
	w := walkUpDown(g, ud)
	if w.err != nil {
		return nil, w.err
	}
	w.cdg.Lift(vcs)
	return w, nil
}

// updownWalk is one pass over an up*/down* table: every pair's route,
// followed through the next-hop entries, gives the one-class CDG and
// the totality verdict.
type updownWalk struct {
	cdg *routing.CDG // routes at class 0
	// err is UpDownChannels' error: a pair inside the root's component
	// the table cannot route. The walk stops there.
	err error
	// totality is UpDownTotality's verdict: its first violation, or nil.
	totality error
}

// check is the walk's totality verdict as a report check.
func (w *updownWalk) check() CheckResult { return check("totality:updown", w.totality) }

// walkUpDown routes every ordered pair of g through ud's next hops, in
// (source, destination) order, and records the routes on g's links at
// one channel class. A pair whose route fails adds nothing to the CDG:
// the simulator drops its packets. Nor does a route with a hop that is
// a self-loop or rides no edge of g, which totality flags.
//
// Routes toward one destination merge, so the walk follows each
// (destination, switch, route-descended, check-descended) state once: a
// route stops at the first state an earlier route toward the same
// destination finished, adds the dependency from its last new hop to
// that state's first hop, and marks its own new states finished. A
// state is marked only by a route whose every hop rides a link. The
// finished suffix was recorded and checked under an earlier pair, so the
// channels, the dependencies, the first totality violation and the error
// are those of walking every route whole (TestWalkUpDownMatchesPerPair
// holds the per-pair walk as its oracle). The check-descended flag is in
// the state because the up-after-down check reads it; on a sound table
// it equals the route's own flag.
func walkUpDown(g *graph.Graph, ud *routing.UpDown) *updownWalk {
	n := g.N()
	comp, _ := g.Components()
	w := &updownWalk{cdg: routing.NewCDG(g, 1)}
	violate := func(err error) {
		if w.totality == nil {
			w.totality = err
		}
	}
	// done has one bit per state: ((t*n+switch)*2+routeDesc)*2+checkDesc.
	done := make([]uint64, (4*n*n+63)/64)
	state := func(t, v int, route, check bool) int {
		i := (t*n + v) * 4
		if route {
			i += 2
		}
		if check {
			i++
		}
		return i
	}
	// A terminating route visits each (switch, route-descended) state at
	// most once, so it has fewer than 2n hops; one with 2n has looped.
	hops, states := make([]routing.ChannelHop, 0, 2*n), make([]int, 0, 2*n)
	var path []int
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			if comp[s] != comp[t] {
				if next, _ := ud.NextHop(s, t, false); next >= 0 {
					violate(fmt.Errorf("verify: up*/down* offers hop %d for disconnected pair %d->%d", next, s, t))
				}
				continue
			}
			// Walk until t, a finished state or a failure; the checks
			// wait until the route is known to arrive.
			hops, states = hops[:0], states[:0]
			cur, route, check := s, false, false
			joined, failed := false, false
			for cur != t {
				i := state(t, cur, route, check)
				if done[i/64]&(1<<(i%64)) != 0 {
					joined = true
					break
				}
				next, down := ud.NextHop(cur, t, route)
				if next < 0 || len(hops) == 2*n {
					failed = true
					break
				}
				hops = append(hops, routing.ChannelHop{From: int32(cur), To: int32(next)})
				states = append(states, i)
				route, check = route || down, check || !ud.IsUp(cur, next)
				cur = next
			}
			if failed {
				var err error
				path, err = ud.AppendPath(path[:0], s, t)
				if comp[s] == comp[ud.Root] {
					violate(fmt.Errorf("verify: up*/down* %d->%d unrouted inside the root component: %w", s, t, err))
					w.err = fmt.Errorf("verify: up*/down* %d->%d: %w", s, t, err)
					return w
				}
				// Legally unroutable off-root pair: must refuse cleanly.
				if next, _ := ud.NextHop(s, t, false); next >= 0 {
					violate(fmt.Errorf("verify: up*/down* %d->%d has no path yet offers hop %d", s, t, next))
				}
				continue
			}
			if len(hops) == 0 {
				continue // the source state itself was finished
			}
			descended, links := false, true
			for i, h := range hops {
				u, v := int(h.From), int(h.To)
				if u == v {
					violate(fmt.Errorf("verify: up*/down* %d->%d self-loop at %d", s, t, u))
					links = false
				} else if !g.HasEdge(u, v) {
					violate(fmt.Errorf("verify: up*/down* %d->%d hop %d->%d rides no edge", s, t, u, v))
					links = false
				}
				down := !ud.IsUp(u, v)
				if descended && !down {
					violate(fmt.Errorf("verify: up*/down* %d->%d goes up after down at hop %d", s, t, i))
				}
				descended = descended || down
			}
			if !links {
				continue
			}
			if joined {
				next, _ := ud.NextHop(cur, t, route)
				hops = append(hops, routing.ChannelHop{From: int32(cur), To: int32(next)})
			}
			w.cdg.AddRoute(hops)
			for _, i := range states {
				done[i/64] |= 1 << (i % 64)
			}
		}
	}
	return w
}
