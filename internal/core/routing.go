package core

import (
	"fmt"
)

// Phase labels the stage of the three-phase routing algorithm that
// produced a hop (Figure 2 of the paper).
type Phase uint8

// Routing phases.
const (
	PhasePreWork Phase = iota // walk uphill to a switch that can see t
	PhaseMain                 // distance-halving shortcuts toward t
	PhaseFinish               // local walk covering the residue
)

// String returns the paper's name for the phase.
func (p Phase) String() string {
	switch p {
	case PhasePreWork:
		return "PRE-WORK"
	case PhaseMain:
		return "MAIN-PROCESS"
	case PhaseFinish:
		return "FINISH"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// LinkClass identifies the channel class a hop travels on. The deadlock
// analysis of Section V.A hinges on phases using disjoint classes; the
// basic variant uses only Succ, Pred and Shortcut.
type LinkClass uint8

// Channel classes.
const (
	ClassSucc       LinkClass = iota // clockwise ring link
	ClassPred                        // counterclockwise ring link
	ClassShortcut                    // distance-halving shortcut
	ClassUp                          // DSN-E/V uphill channel (PRE-WORK)
	ClassExtraPred                   // DSN-E/V extra channel, pred direction
	ClassExtraSucc                   // DSN-E/V extra channel, succ direction
	ClassFinishSucc                  // DSN-E/V finishing channel, succ direction
	ClassShort                       // DSN-D short link
)

// NumClasses is the number of channel classes: every LinkClass is below
// it.
const NumClasses = int(ClassShort) + 1

// String returns a short name for the class.
func (c LinkClass) String() string {
	switch c {
	case ClassSucc:
		return "succ"
	case ClassPred:
		return "pred"
	case ClassShortcut:
		return "shortcut"
	case ClassUp:
		return "up"
	case ClassExtraPred:
		return "extra-pred"
	case ClassExtraSucc:
		return "extra-succ"
	case ClassFinishSucc:
		return "finish-succ"
	case ClassShort:
		return "short"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Hop is one link traversal of a route.
type Hop struct {
	From, To int32
	Class    LinkClass
	Phase    Phase
}

// Route is the outcome of routing one packet from Src to Dst.
type Route struct {
	Src, Dst  int
	Hops      []Hop
	PhaseHops [3]int // hop count per phase
}

// Len returns the route length in hops.
func (r *Route) Len() int { return len(r.Hops) }

// Path returns the switch sequence visited, including both endpoints.
func (r *Route) Path() []int {
	path := make([]int, 0, len(r.Hops)+1)
	path = append(path, r.Src)
	for _, h := range r.Hops {
		path = append(path, int(h.To))
	}
	return path
}

// levelFor returns l = floor(log2(n/d)) + 1, the level whose shortcut
// spans at least half the remaining clockwise distance d:
// n/2^l < d <= n/2^(l-1). d must be >= 1.
func (d *DSN) levelFor(dist int) int {
	l := 1
	// Smallest l >= 1 with n < dist * 2^l.
	for l < d.P+2 && d.N >= dist<<uint(l) {
		l++
	}
	return l
}

// Route runs the paper's custom routing algorithm (Figure 2) from s to t
// and returns the traversed route. The basic variant uses Pred links for
// PRE-WORK and Succ/Pred for FINISH; the E/V variants substitute the
// dedicated deadlock-free channel classes of Section V.A.
//
// The route is deterministic. An error is returned only if the algorithm
// fails to converge within its safety budget, which indicates a
// construction bug rather than an input condition.
func (d *DSN) Route(s, t int) (*Route, error) {
	hops, err := d.AppendRoute(nil, s, t)
	if err != nil {
		return nil, err
	}
	r := &Route{Src: s, Dst: t, Hops: hops}
	for _, h := range hops {
		r.PhaseHops[h.Phase]++
	}
	return r, nil
}

// AppendRoute appends the hops of Route(s, t) to hops and returns the
// extended slice, so that callers routing many pairs can share one
// buffer. On error hops is returned unchanged.
func (d *DSN) AppendRoute(hops []Hop, s, t int) ([]Hop, error) {
	if s < 0 || s >= d.N || t < 0 || t >= d.N {
		return hops, fmt.Errorf("core: route endpoints (%d,%d) out of range [0,%d)", s, t, d.N)
	}
	if s == t {
		return hops, nil
	}
	start := len(hops)
	deadlockFree := d.Variant == VariantE || d.Variant == VariantV

	// All movement bookkeeping is clockwise offset from s. D is the target
	// offset; pos tracks progress (pred hops decrease it, succ and
	// shortcut hops increase it). Overshoot is pos > D.
	D := d.ClockwiseDist(s, t)
	pos := 0
	u := s
	budget := 20*d.P + 2*d.N + 16 // generous safety net; Theorem 1(c) says 3p+r

	hop := func(to int, class LinkClass, phase Phase) {
		hops = append(hops, Hop{From: int32(u), To: int32(to), Class: class, Phase: phase})
		u = to
	}

	// PRE-WORK: walk uphill (pred direction) until the current switch's
	// level is at most the required level l for the remaining distance.
	for budget > 0 {
		budget--
		if u == t {
			return hops, nil
		}
		dist := D - pos
		l := d.levelFor(dist)
		if d.LevelOf(u) <= l {
			break
		}
		class := ClassPred
		if deadlockFree && d.HasUp(u) {
			class = ClassUp
		}
		hop(d.Pred(u), class, PhasePreWork)
		pos--
	}

	// MAIN-PROCESS: alternate succ walks and distance-halving shortcuts,
	// stopping on the LOOP-STOP condition (level x+1 reached, close
	// enough, or overshoot).
	for budget > 0 {
		budget--
		dist := D - pos
		if dist <= 0 {
			break // arrived or overshot
		}
		if dist <= d.P {
			break // close enough: further shortcuts would overshoot
		}
		lu := d.LevelOf(u)
		if lu == d.X+1 {
			break // no shortcut ladder beyond level x
		}
		l := d.levelFor(dist)
		if lu == l && d.shortcut[u] >= 0 {
			to := int(d.shortcut[u])
			pos += d.ClockwiseDist(u, to)
			hop(to, ClassShortcut, PhaseMain)
		} else {
			hop(d.Succ(u), ClassSucc, PhaseMain)
			pos++
		}
	}
	if pos == D {
		return hops, nil
	}

	// FINISH: local walk covering the residue. Overshoot goes back on
	// pred-direction channels; undershoot continues on succ-direction
	// channels. Following the proof of Theorem 3, the E/V variants ride
	// the dedicated Extra channels ONLY when the destination lies in the
	// window [0, 2p), and only for hops whose link is inside the window.
	// Destination scoping is what breaks the ring cycle: walks toward a
	// window destination never leave the window again, so the Extra chain
	// is acyclic, while the ordinary finishing channels are never used on
	// one boundary link of the window and therefore cannot wrap the ring.
	window := 2 * d.P
	tInWindow := t < window
	for budget > 0 && pos != D {
		budget--
		if pos > D { // overshoot: walk counterclockwise
			to := d.Pred(u)
			class := ClassPred
			if deadlockFree && tInWindow && u >= 1 && u <= window {
				class = ClassExtraPred // link (u, u-1) is an Extra link
			}
			hop(to, class, PhaseFinish)
			pos--
		} else { // undershoot: walk clockwise
			to := d.Succ(u)
			class := ClassSucc
			if deadlockFree {
				class = ClassFinishSucc
				if tInWindow && to >= 1 && to <= window {
					class = ClassExtraSucc // link (to, u) is an Extra link
				}
			}
			hop(to, class, PhaseFinish)
			pos++
		}
	}
	if pos != D {
		return hops[:start], fmt.Errorf("core: %v routing %d->%d did not converge (pos=%d target=%d)", d, s, t, pos, D)
	}
	return hops, nil
}

// DetourHop returns the single ring hop leaving u in the given direction
// (clockwise = succ, counterclockwise = pred), labeled with the
// FINISH-phase channel class fault detours ride. When a shortcut on a
// precomputed route dies, fault-tolerant source routing re-sources the
// packet onto a chain of these hops; the basic variant falls back to the
// plain ring classes since it has no dedicated finishing channels.
func (d *DSN) DetourHop(u int, clockwise bool) Hop {
	deadlockFree := d.Variant == VariantE || d.Variant == VariantV
	if clockwise {
		class := ClassSucc
		if deadlockFree {
			class = ClassFinishSucc
		}
		return Hop{From: int32(u), To: int32(d.Succ(u)), Class: class, Phase: PhaseFinish}
	}
	return Hop{From: int32(u), To: int32(d.Pred(u)), Class: ClassPred, Phase: PhaseFinish}
}

// RingRoute returns the ring-only route from s to t walking the chosen
// direction, the fallback path that fault-tolerant routing degrades to
// when shortcuts die. Its length is the ring distance between s and t in
// that direction.
func (d *DSN) RingRoute(s, t int, clockwise bool) (*Route, error) {
	if s < 0 || s >= d.N || t < 0 || t >= d.N {
		return nil, fmt.Errorf("core: ring route endpoints (%d,%d) out of range [0,%d)", s, t, d.N)
	}
	r := &Route{Src: s, Dst: t}
	for u := s; u != t; {
		h := d.DetourHop(u, clockwise)
		r.Hops = append(r.Hops, h)
		r.PhaseHops[h.Phase]++
		u = int(h.To)
	}
	return r, nil
}

// RouteLen returns just the length of the custom route from s to t.
func (d *DSN) RouteLen(s, t int) (int, error) {
	r, err := d.Route(s, t)
	if err != nil {
		return 0, err
	}
	return r.Len(), nil
}
