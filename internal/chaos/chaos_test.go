package chaos

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dsnet/internal/harness"
	"dsnet/internal/layout"
	"dsnet/internal/netsim"
)

func torusTarget(t *testing.T, n int) Target {
	t.Helper()
	tgt, err := BuildTarget("torus", n)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

func TestScenarioDeterminismAndShape(t *testing.T) {
	tgt := torusTarget(t, 64)
	l, err := layout.New(tgt.Graph.N(), layout.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := Window{Start: 5000, End: 15000}
	for kind := Kind(0); kind < numKinds; kind++ {
		p1, err := Generate(tgt.Graph, l, kind, w, 42)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		p2, err := Generate(tgt.Graph, l, kind, w, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("%s: same seed, different plans", kind)
		}
		if len(p1.Events) == 0 {
			t.Fatalf("%s: empty plan", kind)
		}
		if err := p1.Validate(tgt.Graph); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for _, ev := range p1.Events {
			if ev.Cycle < w.Start || ev.Cycle > w.End {
				t.Fatalf("%s: event %+v outside window [%d,%d]", kind, ev, w.Start, w.End)
			}
		}
		if !fullyRepaired(p1) {
			t.Fatalf("%s: generated plan leaves components dead", kind)
		}
	}
}

func TestCampaignIsSeedStable(t *testing.T) {
	tgt := torusTarget(t, 64)
	l, err := layout.New(tgt.Graph.N(), layout.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := Window{Start: 5000, End: 15000}
	a, err := Campaign(tgt.Graph, l, w, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Campaign(tgt.Graph, l, w, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same campaign seed, different scenarios")
	}
	if len(a) != 10 {
		t.Fatalf("want 10 scenarios, got %d", len(a))
	}
	kinds := map[Kind]bool{}
	for _, sc := range a {
		kinds[sc.Kind] = true
	}
	if len(kinds) != int(numKinds) {
		t.Fatalf("10-scenario campaign covered %d of %d kinds", len(kinds), numKinds)
	}
}

// TestShrinkSynthetic exercises ddmin against pure predicates, no
// simulator involved.
func TestShrinkSynthetic(t *testing.T) {
	evs := make([]netsim.FaultEvent, 12)
	for i := range evs {
		evs[i] = netsim.LinkDown(int64(100*i), i)
	}
	// Failure needs the pair {edge 3 down, edge 9 down}.
	fails := func(cand []netsim.FaultEvent) bool {
		has := map[int]bool{}
		for _, ev := range cand {
			if !ev.Repair {
				has[ev.Edge] = true
			}
		}
		return has[3] && has[9]
	}
	min := Shrink(evs, fails)
	if len(min) != 2 || !fails(min) {
		t.Fatalf("shrunk to %d events %+v, want the 2-event core", len(min), min)
	}

	// Failure independent of the plan shrinks to nothing.
	always := func([]netsim.FaultEvent) bool { return true }
	if min := Shrink(evs, always); len(min) != 0 {
		t.Fatalf("always-failing predicate shrank to %d events, want 0", len(min))
	}

	// A single essential event survives alone.
	one := func(cand []netsim.FaultEvent) bool {
		for _, ev := range cand {
			if ev.Edge == 5 {
				return true
			}
		}
		return false
	}
	min = Shrink(evs, one)
	if len(min) != 1 || min[0].Edge != 5 {
		t.Fatalf("shrunk to %+v, want just edge 5", min)
	}
}

func TestReproRoundTrip(t *testing.T) {
	r := &Repro{
		Target: "torus", N: 16, Engine: "wormhole", Rate: 0.05, Seed: 9,
		Watchdog: 60000, HOL: 16384, TTL: false, Monitor: netsim.MonitorHOLWait,
		Events: []netsim.FaultEvent{
			netsim.SwitchDown(6000, 3),
			netsim.LinkUp(9000, 2),
		},
	}
	data := r.Marshal()
	back, err := ParseRepro(data)
	if err != nil {
		t.Fatalf("%v\n%s", err, data)
	}
	// Marshal canonicalizes the event order; compare canonically.
	r.Events = netsim.NewFaultPlan(r.Events...).Events
	if !reflect.DeepEqual(r, back) {
		t.Fatalf("roundtrip mismatch:\nout %+v\nin  %+v", r, back)
	}
	if _, err := ParseRepro([]byte("down link 3 @ 100\n")); err == nil {
		t.Fatal("parsed a repro with no version header")
	}
	if _, err := ParseRepro([]byte("v1\nbogus 1\n")); err == nil {
		t.Fatal("parsed an unknown directive")
	}
}

func TestBuildTargetNames(t *testing.T) {
	for _, name := range TargetNames {
		n := 64
		if strings.HasPrefix(name, "dsn-") {
			n = 36 // dsn-v needs n % p == 0; 36 works for every variant
		}
		tgt, err := BuildTarget(name, n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tgt.Graph == nil || tgt.NewRouter == nil {
			t.Fatalf("%s: incomplete target", name)
		}
		if _, err := tgt.NewRouter(); err != nil {
			t.Fatalf("%s: router: %v", name, err)
		}
	}
	if _, err := BuildTarget("no-such", 64); err == nil {
		t.Fatal("unknown target name accepted")
	}
}

// TestCampaignHealthyTorus runs a small real campaign grid on a healthy
// target through both engines: every verdict must be clean, and each
// setup's verdicts start with its golden baseline.
func TestCampaignHealthyTorus(t *testing.T) {
	if testing.Short() || raceDetectorEnabled {
		t.Skip("full chaos campaign in -short or -race mode")
	}
	g, err := NewGrid([]Setup{
		{Target: "torus", N: 16, Seed: 1},
		{Target: "torus", N: 16, Seed: 1, Wormhole: true},
	}, int(numKinds))
	if err != nil {
		t.Fatal(err)
	}
	verdicts, err := g.Run(context.Background(), harness.Serial())
	if err != nil {
		t.Fatal(err)
	}
	for i, vs := range verdicts {
		if len(vs) != int(numKinds)+1 || vs[0].Scenario.Kind != GoldenKind {
			t.Fatalf("setup %d: %d verdicts, first %s; want golden plus %d scenarios", i, len(vs), vs[0].Scenario, numKinds)
		}
		for _, v := range vs {
			if !v.OK() {
				t.Errorf("%s", v)
			}
		}
	}
}

// TestUnsafeBasicDSNCaughtAndShrunk is the acceptance scenario: the
// deliberately broken ring-shared-FINISH configuration (basic-variant
// custom routing, which dsnverify proves cyclic) must be caught at
// runtime by the monitors, and the multi-event failing campaign must
// shrink to a <= 3-event reproducer.
func TestUnsafeBasicDSNCaughtAndShrunk(t *testing.T) {
	if testing.Short() || raceDetectorEnabled {
		t.Skip("deadlock formation run in -short or -race mode")
	}
	tgt, err := BuildTarget("dsn-basic-unsafe", 36)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Rate = 0.30 // past the unsafe config's deadlock threshold
	e, err := New(tgt, opt)
	if err != nil {
		t.Fatal(err)
	}
	// A multi-event campaign scheduled late in the run: the intrinsic
	// deadlock trips the monitors before any fault fires, so every
	// event is noise the shrinker must discard.
	scs, err := Campaign(tgt.Graph, e.T.Layout, Window{Start: 120000, End: 180000}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := scs[0]
	if len(sc.Plan.Events) < 2 {
		t.Fatalf("campaign too small to be interesting: %d events", len(sc.Plan.Events))
	}
	v, err := e.RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if v.OK() {
		t.Fatal("monitors missed the provably deadlocking configuration")
	}
	t.Logf("caught: %s", v)
	shrunk, runs, err := e.ShrinkPlan(sc.Plan, v.Monitor)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("shrunk %d -> %d events in %d runs", len(sc.Plan.Events), len(shrunk.Events), runs)
	if len(shrunk.Events) > 3 {
		t.Fatalf("shrunk reproducer still has %d events, want <= 3", len(shrunk.Events))
	}
}

// TestReproCorpus replays every checked-in reproducer; each must trip
// exactly the monitor it was minimized for. This is the regression
// corpus the shrinker emits into.
func TestReproCorpus(t *testing.T) {
	if testing.Short() || raceDetectorEnabled {
		t.Skip("repro replay runs full simulations; skipped in -short or -race mode")
	}
	files, err := filepath.Glob(filepath.Join("testdata", "repro", "*.repro"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no checked-in reproducers found")
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			r, err := ParseRepro(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
