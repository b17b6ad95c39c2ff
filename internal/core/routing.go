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
// buffer. It iterates NextHop from s. On error hops is returned
// unchanged.
func (d *DSN) AppendRoute(hops []Hop, s, t int) ([]Hop, error) {
	if s < 0 || s >= d.N || t < 0 || t >= d.N {
		return hops, fmt.Errorf("core: route endpoints (%d,%d) out of range [0,%d)", s, t, d.N)
	}
	start := len(hops)
	var last Hop
	// A generous safety net; Theorem 1(c) says 3p+r.
	for u, budget := s, 20*d.P+2*d.N+16; budget > 0; budget-- {
		h, ok := d.NextHop(u, t, last)
		if !ok {
			return hops, nil
		}
		hops = append(hops, h)
		last, u = h, int(h.To)
	}
	return hops[:start], fmt.Errorf("core: %v routing %d->%d did not converge", d, s, t)
}

// NextHop is one step of the three-phase algorithm of Figure 2: the hop
// a packet at switch u heading to t takes next, given the hop that
// brought it to u (the zero Hop at the source). ok is false when u == t.
// u and t must be switches of d.
//
// The last hop's phase and class are all the state a route needs. The
// phase says which loop of Figure 2 the packet is in, so the basic
// variant's ring classes, which PRE-WORK, MAIN and FINISH share, are not
// ambiguous. In FINISH the class gives the walk's direction. After a
// MAIN shortcut the clockwise distance tells an overshoot: a shortcut
// that passes t does so by less than n/2, which leaves more than n/2 to
// go clockwise, while one that stops short leaves less than n/2.
func (d *DSN) NextHop(u, t int, last Hop) (Hop, bool) {
	if u == t {
		return Hop{}, false
	}
	dist := t - u // ClockwiseDist without its two divisions
	if dist < 0 {
		dist += d.N
	}
	switch last.Phase {
	case PhasePreWork:
		// Walk uphill (pred direction) while u's level is above the
		// level l the remaining distance requires.
		if d.LevelOf(u) > d.levelFor(dist) {
			class := ClassPred
			if d.HasUp(u) {
				class = ClassUp
			}
			return newHop(u, d.Pred(u), class, PhasePreWork), true
		}
	case PhaseMain:
		if last.Class == ClassShortcut && dist > d.N/2 {
			return d.finishHop(u, t, false), true // overshot t
		}
	default:
		return d.finishHop(u, t, last.Class != ClassPred && last.Class != ClassExtraPred), true
	}
	// MAIN-PROCESS: alternate succ walks and distance-halving shortcuts
	// until LOOP-STOP: close enough that a shortcut would overshoot, or
	// level x+1, beyond the shortcut ladder.
	lu := d.LevelOf(u)
	if dist <= d.P || lu == d.X+1 {
		return d.finishHop(u, t, true), true
	}
	if to := d.shortcut[u]; lu == d.levelFor(dist) && to >= 0 {
		return newHop(u, int(to), ClassShortcut, PhaseMain), true
	}
	return newHop(u, d.Succ(u), ClassSucc, PhaseMain), true
}

func newHop(from, to int, class LinkClass, phase Phase) Hop {
	return Hop{From: int32(from), To: int32(to), Class: class, Phase: phase}
}

// finishHop is a FINISH hop: the local walk covering the residue, back
// on pred-direction channels after an overshoot, on succ-direction
// channels otherwise. Following the proof of Theorem 3, the E/V variants
// ride the dedicated Extra channels ONLY when the destination lies in
// the window [0, 2p), and only for hops whose link is inside the window.
// Destination scoping is what breaks the ring cycle: walks toward a
// window destination never leave the window again, so the Extra chain
// is acyclic, while the ordinary finishing channels are never used on
// one boundary link of the window and therefore cannot wrap the ring.
func (d *DSN) finishHop(u, t int, clockwise bool) Hop {
	deadlockFree := d.Variant == VariantE || d.Variant == VariantV
	window := 2 * d.P
	extra := deadlockFree && t < window
	if !clockwise {
		class := ClassPred
		if extra && u >= 1 && u <= window {
			class = ClassExtraPred // link (u, u-1) is an Extra link
		}
		return newHop(u, d.Pred(u), class, PhaseFinish)
	}
	to := d.Succ(u)
	class := ClassSucc
	if deadlockFree {
		class = ClassFinishSucc
		if extra && to >= 1 && to <= window {
			class = ClassExtraSucc // link (to, u) is an Extra link
		}
	}
	return newHop(u, to, class, PhaseFinish)
}

// DetourHop returns the single ring hop leaving u in the given direction
// (clockwise = succ, counterclockwise = pred), labeled with the
// FINISH-phase channel class fault detours ride. When a shortcut on a
// packet's route dies, fault-tolerant source routing re-sources the
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
