package verify_test

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"dsnet/internal/chaos"
	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/layout"
	"dsnet/internal/netsim"
	"dsnet/internal/verify"
)

var update = flag.Bool("update", false, "rewrite testdata/degraded_dsn_golden.txt from the current certifier")

const degradedDSNGoldenFile = "testdata/degraded_dsn_golden.txt"

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

// dsnTimeline is one fault timeline of a DSN instance.
type dsnTimeline struct {
	name string
	d    *core.DSN
	plan *netsim.FaultPlan
}

// dsnTimelines returns BenchmarkCertify's burst and rolling-cabinet
// plans on DSN-V-36 and seeded random link and switch timelines on
// DSN-V-36 and the basic DSN-64.
func dsnTimelines(t *testing.T) []dsnTimeline {
	t.Helper()
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
	var timelines []dsnTimeline
	for _, kind := range []chaos.Kind{chaos.Burst, chaos.RollingCabinets} {
		plan, err := chaos.Generate(v36.Graph(), l, kind, chaos.Window{Start: 2000, End: 10000}, 1)
		if err != nil {
			t.Fatal(err)
		}
		timelines = append(timelines, dsnTimeline{kind.String(), v36, plan})
	}
	for seed := uint64(1); seed <= 10; seed++ {
		for _, d := range []*core.DSN{v36, basic64} {
			timelines = append(timelines, dsnTimeline{fmt.Sprintf("%s/random-%d", d, seed), d, randomTimeline(d.Graph(), 8, seed)})
		}
	}
	return timelines
}

// TestDegradedDSNGolden pins every epoch's CertifyDegradedDSN
// certificate on the dsnTimelines: topology, status, channel and
// dependency counts, witness, and each check's name, outcome and
// detail. Only -update rewrites the file, for an intended change of the
// degraded certificates.
func TestDegradedDSNGolden(t *testing.T) {
	var b strings.Builder
	b.WriteString("# CertifyDegradedDSN after every fault event; see timeline_test.go.\n")
	b.WriteString("# Regenerate only for an intended certificate change: go test ./internal/verify -run TestDegradedDSNGolden -update\n")
	for _, tl := range dsnTimelines(t) {
		d := tl.d
		entries, err := verify.CertifyFaultTimeline(d.Graph(), tl.plan, func(edgeDead, swDead []bool) verify.Certificate {
			return verify.CertifyDegradedDSN(d, edgeDead, swDead)
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, en := range entries {
			c := &en.Cert
			fmt.Fprintf(&b, "%s event=%d cycle=%d %s: %s channels=%d deps=%d err=%q witness=%q\n",
				tl.name, en.Index, en.Cycle, c.Topology, c.Status, c.Channels, c.Deps, c.Err, c.WitnessString())
			for _, ch := range c.Checks {
				fmt.Fprintf(&b, "\t%s ok=%v %s\n", ch.Name, ch.OK, ch.Detail)
			}
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(degradedDSNGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(degradedDSNGoldenFile)
	if err != nil {
		t.Fatalf("%v (run go test -run TestDegradedDSNGolden -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("%d lines, want %d", len(gl), len(wl))
		}
	}
}
