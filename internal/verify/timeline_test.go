package verify_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"dsnet/internal/chaos"
	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/layout"
	"dsnet/internal/netsim"
	"dsnet/internal/verify"
)

// randomTimeline draws a plan of the given number of events on g: each
// fails a random link or switch, or repairs it if it is already down.
func randomTimeline(g *graph.Graph, events int, seed uint64) *netsim.FaultPlan {
	rng := rand.New(rand.NewPCG(seed, 0x7153))
	edgeDead, swDead := make([]bool, g.M()), make([]bool, g.N())
	plan := netsim.NewFaultPlan()
	for i := 0; i < events; i++ {
		cycle := int64(100 * (i + 1))
		if rng.IntN(2) == 0 {
			e := rng.IntN(g.M())
			if edgeDead[e] {
				plan.Events = append(plan.Events, netsim.LinkUp(cycle, e))
			} else {
				plan.Events = append(plan.Events, netsim.LinkDown(cycle, e))
			}
			edgeDead[e] = !edgeDead[e]
			continue
		}
		sw := rng.IntN(g.N())
		if swDead[sw] {
			plan.Events = append(plan.Events, netsim.SwitchUp(cycle, sw))
		} else {
			plan.Events = append(plan.Events, netsim.SwitchDown(cycle, sw))
		}
		swDead[sw] = !swDead[sw]
	}
	return plan
}

// TestDegradedDSNCertifierMatchesOneShot replays fault timelines through
// one DegradedDSNCertifier, which builds its router once, and through
// the one-shot CertifyDegradedDSN, which builds a router per event. At
// every epoch the two certificates must be equal in every field:
// status, counts, witness, topology and every check's detail. The
// timelines are BenchmarkCertify's burst and rolling-cabinet plans on
// DSN-V-36 and seeded random link and switch timelines on DSN-V-36 and
// the basic DSN-64.
func TestDegradedDSNCertifierMatchesOneShot(t *testing.T) {
	v36, err := core.NewV(36)
	if err != nil {
		t.Fatal(err)
	}
	basic64, err := core.New(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	l, err := layout.New(v36.N, layout.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	type timeline struct {
		name string
		d    *core.DSN
		plan *netsim.FaultPlan
	}
	var timelines []timeline
	for _, kind := range []chaos.Kind{chaos.Burst, chaos.RollingCabinets} {
		plan, err := chaos.Generate(v36.Graph(), l, kind, chaos.Window{Start: 2000, End: 10000}, 1)
		if err != nil {
			t.Fatal(err)
		}
		timelines = append(timelines, timeline{kind.String(), v36, plan})
	}
	for seed := uint64(1); seed <= 10; seed++ {
		for _, d := range []*core.DSN{v36, basic64} {
			timelines = append(timelines, timeline{fmt.Sprintf("%s/random-%d", d, seed), d, randomTimeline(d.Graph(), 8, seed)})
		}
	}
	for _, tl := range timelines {
		d := tl.d
		got, err := verify.CertifyFaultTimeline(d.Graph(), tl.plan, verify.DegradedDSNCertifier(d))
		if err != nil {
			t.Fatal(err)
		}
		want, err := verify.CertifyFaultTimeline(d.Graph(), tl.plan, func(edgeDead, swDead []bool) verify.Certificate {
			return verify.CertifyDegradedDSN(d, edgeDead, swDead)
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s event %d: certifier %+v, one-shot %+v", tl.name, want[i].Index, got[i].Cert, want[i].Cert)
			}
		}
	}
}
