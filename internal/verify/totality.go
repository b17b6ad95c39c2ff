package verify

import (
	"fmt"

	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/netsim"
	"dsnet/internal/routing"
)

// check wraps an error-returning totality verifier into a CheckResult.
func check(name string, err error) CheckResult {
	if err != nil {
		return CheckResult{Name: name, OK: false, Detail: err.Error()}
	}
	return CheckResult{Name: name, OK: true, Detail: "all pairs routed, edges real, progress monotone"}
}

// UpDownTotality verifies the up*/down* tables over every src→dst pair.
// Pairs in the root's component must materialize a route — BFS-level
// ranking guarantees one — whose hops ride real edges, never self-loop,
// and never go up after going down (the monotone claim of the
// algorithm). Pairs outside the root's component (partial,
// fault-degraded builds) are ranked by ID, which can leave a connected
// pair with no up*/down*-legal path; such pairs may refuse, but the
// refusal must be consistent: no next hop offered anywhere it cannot
// route. Disconnected pairs must always refuse. It is the totality half
// of the table walk UpDownChannels builds its CDG from (UpDownEscape
// returns both).
func UpDownTotality(g *graph.Graph, ud *routing.UpDown) error {
	return walkUpDown(g, ud).totality
}

// CheckUpDownTotality is UpDownTotality as a report check.
func CheckUpDownTotality(g *graph.Graph, ud *routing.UpDown) CheckResult {
	return check("totality:updown", UpDownTotality(g, ud))
}

// ringDelta returns the signed clockwise progress of one custom-routing
// hop, derived from its channel class.
func ringDelta(d *core.DSN, h core.Hop) (int, error) {
	u, v := int(h.From), int(h.To)
	switch h.Class {
	case core.ClassSucc, core.ClassFinishSucc, core.ClassExtraSucc:
		if v != d.Succ(u) {
			return 0, fmt.Errorf("verify: %v hop %d->%d is not the succ link", h.Class, u, v)
		}
		return 1, nil
	case core.ClassPred, core.ClassExtraPred, core.ClassUp:
		if v != d.Pred(u) {
			return 0, fmt.Errorf("verify: %v hop %d->%d is not the pred link", h.Class, u, v)
		}
		return -1, nil
	case core.ClassShortcut:
		return d.ClockwiseDist(u, v), nil
	case core.ClassShort:
		if v == (u+d.Q)%d.N {
			return d.Q, nil
		}
		if u == (v+d.Q)%d.N {
			return -d.Q, nil
		}
		return 0, fmt.Errorf("verify: short hop %d->%d spans neither +q nor -q", u, v)
	default:
		return 0, fmt.Errorf("verify: unknown channel class %v", h.Class)
	}
}

// dsnWalk is one pass of a DSN's custom routing over every ordered
// pair: the Section V.A class-level CDG, the longest route and the
// totality verdict, all from the same routes.
type dsnWalk struct {
	cdg *routing.CDG // one channel per (link direction, LinkClass); nil unless asked for
	// err is the first pair the routing could not route; the walk stops
	// there.
	err      error
	maxLen   int   // longest route
	totality error // first totality violation, or nil
}

// check is the walk's totality verdict as a report check.
func (w *dsnWalk) check() CheckResult { return check("totality:dsn-custom", w.totality) }

// walkDSN routes every ordered pair of d through route, in (source,
// destination) order, appending each route into one reused buffer.
// route is d.AppendRoute or appendShortAware(d). With classes set it
// records the routes in a CDG on d's graph at core.NumClasses classes.
//
// Totality (reported as "totality:dsn-custom") holds when every route is
// contiguous from src to dst, every hop rides a real edge (DSN-E's
// Up/Extra hops additionally have their dedicated wire), no hop
// self-loops, the phase sequence is monotone (PRE-WORK, MAIN, FINISH),
// MAIN hops strictly advance the clockwise position, and FINISH hops
// strictly shrink the residue to the route's net displacement — the
// monotone-progress claims of Figure 2. For the E/V variants every hop
// class must map onto a simulator VC (netsim.ClassVC), keeping the
// static certificate aligned with what the simulator actually runs.
func walkDSN(d *core.DSN, route func(hops []core.Hop, s, t int) ([]core.Hop, error), classes bool) *dsnWalk {
	w := &dsnWalk{}
	if classes {
		w.cdg = routing.NewCDG(d.Graph(), core.NumClasses)
	}
	var (
		hops  []core.Hop
		chans []routing.ChannelHop
		err   error
	)
	for s := 0; s < d.N; s++ {
		for t := 0; t < d.N; t++ {
			if s == t {
				continue
			}
			if hops, err = route(hops[:0], s, t); err != nil {
				w.err = err
				if w.totality == nil {
					w.totality = fmt.Errorf("verify: %d->%d unrouted: %w", s, t, err)
				}
				return w
			}
			w.maxLen = max(w.maxLen, len(hops))
			if w.totality == nil {
				w.totality = dsnRouteTotality(d, s, t, hops)
			}
			if w.cdg != nil {
				chans = chans[:0]
				for _, h := range hops {
					chans = append(chans, routing.ChannelHop{From: h.From, To: h.To, Class: uint8(h.Class)})
				}
				w.cdg.AddRoute(chans)
			}
		}
	}
	return w
}

// appendShortAware is d.RouteShortAware in AppendRoute's form, for
// walkDSN.
func appendShortAware(d *core.DSN) func(hops []core.Hop, s, t int) ([]core.Hop, error) {
	return func(hops []core.Hop, s, t int) ([]core.Hop, error) {
		r, err := d.RouteShortAware(s, t)
		if err != nil {
			return hops, err
		}
		return append(hops, r.Hops...), nil
	}
}

// dsnRouteTotality checks one route of walkDSN's totality.
func dsnRouteTotality(d *core.DSN, s, t int, hops []core.Hop) error {
	deadlockFree := d.Variant == core.VariantE || d.Variant == core.VariantV
	if len(hops) == 0 {
		return fmt.Errorf("verify: %d->%d has an empty route", s, t)
	}
	// The route's net displacement must be congruent to the clockwise
	// distance mod N; short backward routes legitimately realize D-N (a
	// net counterclockwise walk).
	D := d.ClockwiseDist(s, t)
	target := 0
	for i, h := range hops {
		delta, err := ringDelta(d, h)
		if err != nil {
			return fmt.Errorf("verify: route %d->%d hop %d: %w", s, t, i, err)
		}
		target += delta
	}
	if ((target-D)%d.N+d.N)%d.N != 0 {
		return fmt.Errorf("verify: route %d->%d displacement %d not congruent to %d mod %d", s, t, target, D, d.N)
	}
	pos := 0
	cur := s
	lastPhase := core.PhasePreWork
	for i, h := range hops {
		if int(h.From) != cur {
			return fmt.Errorf("verify: route %d->%d discontinuous at hop %d (%d != %d)", s, t, i, h.From, cur)
		}
		if h.From == h.To {
			return fmt.Errorf("verify: route %d->%d self-loop at hop %d", s, t, i)
		}
		if !d.Graph().HasEdge(int(h.From), int(h.To)) {
			return fmt.Errorf("verify: route %d->%d hop %d rides no edge %d->%d", s, t, i, h.From, h.To)
		}
		if h.Phase < lastPhase {
			return fmt.Errorf("verify: route %d->%d phase regresses at hop %d (%v after %v)", s, t, i, h.Phase, lastPhase)
		}
		lastPhase = h.Phase
		if deadlockFree {
			if _, err := netsim.ClassVC(h.Class); err != nil {
				return fmt.Errorf("verify: route %d->%d hop %d: %w", s, t, i, err)
			}
			if e, need := d.DedicatedWire(h); need && e < 0 {
				return fmt.Errorf("verify: route %d->%d hop %d: no dedicated wire for %v hop %d->%d", s, t, i, h.Class, h.From, h.To)
			}
		}
		delta, err := ringDelta(d, h)
		if err != nil {
			return fmt.Errorf("verify: route %d->%d hop %d: %w", s, t, i, err)
		}
		if h.Phase == core.PhaseMain && delta <= 0 {
			return fmt.Errorf("verify: route %d->%d MAIN hop %d does not advance (delta %d)", s, t, i, delta)
		}
		if h.Phase == core.PhaseFinish {
			before := target - pos
			after := target - (pos + delta)
			if abs(after) >= abs(before) {
				return fmt.Errorf("verify: route %d->%d FINISH hop %d does not shrink the residue (%d -> %d)", s, t, i, before, after)
			}
		}
		pos += delta
		cur = int(h.To)
	}
	if cur != t {
		return fmt.Errorf("verify: route %d->%d ends at %d", s, t, cur)
	}
	if pos != target {
		return fmt.Errorf("verify: route %d->%d position bookkeeping ends at %d, want %d", s, t, pos, target)
	}
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
