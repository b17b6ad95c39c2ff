package netsim

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"dsnet/internal/graph"
)

// FaultEvent is one scheduled change in the health of the fabric: a link
// or switch failing at a given cycle, or a previously failed component
// being repaired.
type FaultEvent struct {
	Cycle  int64
	Edge   int  // edge index, or -1 for a switch event
	Switch int  // switch id, or -1 for a link event
	Repair bool // true restores the component instead of failing it
}

// LinkDown returns a link failure event.
func LinkDown(cycle int64, edge int) FaultEvent {
	return FaultEvent{Cycle: cycle, Edge: edge, Switch: -1}
}

// LinkUp returns a link repair event.
func LinkUp(cycle int64, edge int) FaultEvent {
	return FaultEvent{Cycle: cycle, Edge: edge, Switch: -1, Repair: true}
}

// SwitchDown returns a switch failure event: every incident channel dies
// and the switch's hosts stop injecting and receiving.
func SwitchDown(cycle int64, sw int) FaultEvent {
	return FaultEvent{Cycle: cycle, Edge: -1, Switch: sw}
}

// SwitchUp returns a switch repair event.
func SwitchUp(cycle int64, sw int) FaultEvent {
	return FaultEvent{Cycle: cycle, Edge: -1, Switch: sw, Repair: true}
}

// FaultPlan is a deterministic schedule of fault events applied during a
// simulation run. Plans are immutable once attached to a simulator.
type FaultPlan struct {
	Events []FaultEvent // sorted by cycle (NewFaultPlan normalizes)
}

// NewFaultPlan builds a plan from the given events, normalized into a
// canonical order: events are sorted by cycle, and same-cycle events on
// *different* components are ordered switch events first, then by
// component id — so two plans built from the same events in any
// argument order compare equal (reflect.DeepEqual), which the chaos
// shrinker relies on to deduplicate candidates. Same-cycle events on
// the *same* component keep their given order, because that order is
// semantic: down-then-repair leaves the component alive,
// repair-then-down leaves it dead. (Found by FuzzFaultPlanNormalize:
// the old cycle-only stable sort made equal-content plans compare
// unequal and their cross-component application order
// construction-dependent.)
func NewFaultPlan(events ...FaultEvent) *FaultPlan {
	p := &FaultPlan{Events: append([]FaultEvent(nil), events...)}
	sort.SliceStable(p.Events, func(i, j int) bool {
		a, b := p.Events[i], p.Events[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		aSwitch, bSwitch := a.Edge < 0, b.Edge < 0
		if aSwitch != bSwitch {
			return aSwitch // switch events before link events
		}
		if aSwitch {
			return a.Switch < b.Switch
		}
		return a.Edge < b.Edge
	})
	return p
}

// Validate checks every event against the simulated graph.
func (p *FaultPlan) Validate(g *graph.Graph) error {
	for i, ev := range p.Events {
		switch {
		case ev.Cycle < 0:
			return fmt.Errorf("netsim: fault event %d at negative cycle %d", i, ev.Cycle)
		case ev.Edge >= 0 && ev.Switch >= 0:
			return fmt.Errorf("netsim: fault event %d names both edge %d and switch %d", i, ev.Edge, ev.Switch)
		case ev.Edge < 0 && ev.Switch < 0:
			return fmt.Errorf("netsim: fault event %d names neither an edge nor a switch", i)
		case ev.Edge >= g.M():
			return fmt.Errorf("netsim: fault event %d edge %d out of range [0,%d)", i, ev.Edge, g.M())
		case ev.Switch >= g.N():
			return fmt.Errorf("netsim: fault event %d switch %d out of range [0,%d)", i, ev.Switch, g.N())
		}
	}
	return nil
}

// FailureCount returns the number of failure (non-repair) events.
func (p *FaultPlan) FailureCount() int {
	k := 0
	for _, ev := range p.Events {
		if !ev.Repair {
			k++
		}
	}
	return k
}

// RandomLinkFaults builds a plan failing floor(m*frac) distinct links,
// chosen uniformly by seed, spread evenly across the cycle window
// [start, start+spread]. spread = 0 fails them all at start. The spread
// matters for live-fault experiments: staggered failures catch packets
// in flight the way a burst at one instant rarely does.
func RandomLinkFaults(g *graph.Graph, frac float64, start, spread int64, seed uint64) (*FaultPlan, error) {
	if frac < 0 || frac >= 1 {
		return nil, fmt.Errorf("netsim: fail fraction %g outside [0,1)", frac)
	}
	if start < 0 || spread < 0 {
		return nil, fmt.Errorf("netsim: negative fault schedule (start %d, spread %d)", start, spread)
	}
	m := g.M()
	k := int(float64(m) * frac)
	rng := rand.New(rand.NewPCG(seed, 0xfa017))
	edges := graph.SampleIndices(m, k, rng)
	events := make([]FaultEvent, 0, k)
	for i, e := range edges {
		at := start
		if k > 1 && spread > 0 {
			at += int64(i) * spread / int64(k-1)
		}
		events = append(events, LinkDown(at, e))
	}
	return NewFaultPlan(events...), nil
}

// FaultAware is implemented by routing functions that can adapt to
// fabric faults. The simulator calls UpdateFaults whenever the health of
// the fabric changes (failures or repairs), passing per-edge and
// per-switch death masks over the original graph; the router must stop
// offering candidates that traverse dead components and may rebuild its
// internal tables on the surviving graph. The masks are snapshots owned
// by the caller: implementations must copy what they keep.
//
// UpdateFaults is the only point at which a router's answers may change:
// between two calls, Candidates must return the same list for the same
// (PacketState, sw). After each call the engines route every waiting
// packet afresh on its next attempt.
//
// Routers that do not implement FaultAware still work under a FaultPlan:
// the simulator masks dead channels at grant time, so their packets
// head-block on dead next hops and fall to the timeout/retry transport
// layer instead of being rerouted.
type FaultAware interface {
	Router
	UpdateFaults(edgeDead, swDead []bool)
}
