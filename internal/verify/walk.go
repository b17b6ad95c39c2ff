package verify

import (
	"fmt"
	"slices"

	"dsnet/internal/graph"
	"dsnet/internal/netsim"
	"dsnet/internal/routing"
	"dsnet/internal/topology"
)

// walk is the certificate of a router as it runs: the escape-channel
// dependency graph its Candidates produce over every live pair, plus
// what the walk saw on the way.
type walk struct {
	cdg *routing.CDG
	// detoured counts the pairs offered at least one escape candidate
	// marked Detour; dropped counts the pairs whose walk stopped short of the
	// destination (a state with no escape candidate, or the step cap),
	// which the simulator's transport times out and drops.
	detoured, dropped int
	firstDrop         [2]int
	// violation is the first error the visit function returned.
	violation error
}

// walkState is one reachable (switch, RtState) state of a packet at the
// current step, with the IDs of the channels it can hold on arrival.
type walkState struct {
	sw   int32
	rt   uint8
	held []int32
}

// stateCheck judges one walked state: the packet state, its switch and
// every candidate the router offered there.
type stateCheck func(st netsim.PacketState, sw int, cands []netsim.Candidate) error

// walkRouter certifies the router that runs on g, after its own
// UpdateFaults: for each pair of live switches it advances one level
// per Step over the reachable (switch, RtState) states, calls
// Candidates once per state, and adds a dependency from every channel
// that can be held on arrival to every escape candidate's channel (link
// granularity: the class is the VC, one of vcs). States are keyed per
// level, so a route that rides the same channel in two phases is not
// cut short, and the walk stops after 5n levels, since a ring detour
// can oscillate forever.
//
// Only escape candidates are followed. For Duato-style routers that is
// the escape layer Duato's theorem certifies; the other routers mark
// every candidate as escape, so their whole CDG is walked. visit, when
// non-nil, sees every walked state with all of its candidates; its
// first error is kept in walk.violation. A state it rejects adds
// nothing to the CDG: its candidates need not ride links of g, and the
// CDG panics on a channel that does not.
func walkRouter(rt netsim.Router, g *graph.Graph, vcs int, swDead []bool, visit stateCheck) *walk {
	n := g.N()
	w := &walk{cdg: routing.NewCDG(g, vcs)}
	var (
		cands     []netsim.Candidate
		cur, next []walkState
	)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t || swAt(swDead, s) || swAt(swDead, t) {
				continue
			}
			cur = push(cur[:0], int32(s), 0)
			delivered, detoured := true, false
			for step := 0; len(cur) > 0; step++ {
				if step == 5*n {
					delivered = false
					break
				}
				next = next[:0]
				for i := range cur {
					at := &cur[i]
					st := netsim.PacketState{SrcSw: int32(s), DstSw: int32(t), Step: int32(step), RtState: at.rt}
					cands = rt.Candidates(st, int(at.sw), cands[:0])
					if visit != nil {
						if err := visit(st, int(at.sw), cands); err != nil {
							if w.violation == nil {
								w.violation = err
							}
							continue
						}
					}
					escape := false
					for _, c := range cands {
						if !c.Escape {
							continue
						}
						escape = true
						detoured = detoured || c.Detour
						ch := w.cdg.ChannelID(routing.ChannelHop{From: at.sw, To: c.Next, Class: uint8(c.VC)})
						for _, h := range at.held {
							w.cdg.AddDependencyID(h, ch)
						}
						if int(c.Next) != t {
							next = arrive(next, c.Next, c.NewState, ch)
						}
					}
					delivered = delivered && escape
				}
				cur, next = next, cur
			}
			if detoured {
				w.detoured++
			}
			if !delivered {
				if w.dropped == 0 {
					w.firstDrop = [2]int{s, t}
				}
				w.dropped++
			}
		}
	}
	return w
}

// push appends a state with no held channels, reusing the buffers of
// earlier levels.
func push(states []walkState, sw int32, rt uint8) []walkState {
	if len(states) == cap(states) {
		return append(states, walkState{sw: sw, rt: rt})
	}
	states = states[:len(states)+1]
	at := &states[len(states)-1]
	at.sw, at.rt, at.held = sw, rt, at.held[:0]
	return states
}

// arrive records that the channel with ID ch can be held on arrival at
// (sw, rt).
func arrive(states []walkState, sw int32, rt uint8, ch int32) []walkState {
	i := 0
	for i < len(states) && (states[i].sw != sw || states[i].rt != rt) {
		i++
	}
	if i == len(states) {
		states = push(states, sw, rt)
	}
	if !slices.Contains(states[i].held, ch) {
		states[i].held = append(states[i].held, ch)
	}
	return states
}

// deliveryCheck reports a walk's first violation or, failing that, its
// first pair that never reaches the destination.
func deliveryCheck(name string, w *walk) CheckResult {
	err := w.violation
	if err == nil && w.dropped > 0 {
		err = fmt.Errorf("verify: %d->%d never reaches its destination", w.firstDrop[0], w.firstDrop[1])
	}
	return check(name, err)
}

// dorMinimal is DOR totality on one walked state: the router offers a
// hop, and every candidate rides a real torus edge and strictly
// decreases the hop distance (DOR on a torus is minimal).
func dorMinimal(tor *topology.Torus) stateCheck {
	return func(st netsim.PacketState, sw int, cands []netsim.Candidate) error {
		t := int(st.DstSw)
		if len(cands) == 0 {
			return fmt.Errorf("verify: DOR stalled at %d toward %d", sw, t)
		}
		for _, c := range cands {
			next := int(c.Next)
			if next == sw || !tor.Graph().HasEdge(sw, next) {
				return fmt.Errorf("verify: DOR hop %d->%d toward %d rides no edge", sw, next, t)
			}
			if d, remain := tor.HopDist(next, t), tor.HopDist(sw, t); d != remain-1 {
				return fmt.Errorf("verify: DOR hop %d->%d toward %d not minimal (%d -> %d)", sw, next, t, remain, d)
			}
		}
		return nil
	}
}

// duatoConsistent is Duato's consistency on one walked state: the
// router offers an escape candidate, so a blocked packet can always
// fall back to the escape layer, and every candidate rides a real edge.
// With dt set (minimal adaptive routing), the state also offers an
// adaptive candidate and every adaptive candidate strictly decreases
// the distance.
func duatoConsistent(g *graph.Graph, dt *routing.DistanceTable) stateCheck {
	return func(st netsim.PacketState, sw int, cands []netsim.Candidate) error {
		t := int(st.DstSw)
		escape, adaptive := false, false
		for _, c := range cands {
			next := int(c.Next)
			if next == sw || !g.HasEdge(sw, next) {
				return fmt.Errorf("verify: candidate %d->%d toward %d rides no edge", sw, next, t)
			}
			if c.Escape {
				escape = true
				continue
			}
			adaptive = true
			if dt != nil && dt.D(next, t) != dt.D(sw, t)-1 {
				return fmt.Errorf("verify: candidate %d for %d->%d does not decrease distance", next, sw, t)
			}
		}
		if !escape {
			return fmt.Errorf("verify: escape continuation missing at %d toward %d", sw, t)
		}
		if dt != nil && !adaptive {
			return fmt.Errorf("verify: no minimal next hop for %d->%d at distance %d", sw, t, dt.D(sw, t))
		}
		return nil
	}
}
