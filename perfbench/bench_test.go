package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dsnet/internal/analysis"
	"dsnet/internal/chaos"
	"dsnet/internal/harness"
	"dsnet/internal/netsim"
	"dsnet/internal/stats"
)

var update = flag.Bool("update", false, "rewrite refdigests.json from one pass of every workload")

// refSeeds are the seeds with committed reference digests: the default
// seed and one held out from tuning.
var refSeeds = []uint64{1, 7}

// shortRates and shortFig10Config give fig10-openloop cells a short
// schedule, for tests that need real cells but not real run lengths.
var shortRates = []float64{0.01, 0.15}

func shortFig10Config(seed uint64) netsim.Config {
	cfg := fig10Config(seed)
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 200, 400, 400
	return cfg
}

func shortFig10() workload {
	return workload{name: "fig10-openloop", plan: func(tr *tracer, seed uint64) ([]harness.Cell[cellOut], error) {
		return fig10Cells(tr, shortFig10Config(seed), shortRates, seed)
	}}
}

func runOnce(t *testing.T, w workload, seed uint64, mem bool) passResult {
	t.Helper()
	p, err := runPass(w, seed, newClock(), mem)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFig10MatchesAnalysis pins driver parity: the fig10-openloop cells
// give results identical to analysis.Fig10CurvesWith, the path dsnfigs
// runs, so arming the conservation monitor changes nothing.
func TestFig10MatchesAnalysis(t *testing.T) {
	const seed = 3
	cfg := shortFig10Config(seed)
	cs, err := fig10Cells(newTracer(false), cfg, shortRates, seed)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := harness.Run(harness.Serial(), "fig10", cs)
	if err != nil {
		t.Fatal(err)
	}
	curves, err := analysis.Fig10CurvesWith(harness.Serial(), cfg, "uniform", shortRates, seed)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, c := range curves {
		for _, res := range c.Points {
			if o := outs[i]; o.Fail != "" || o.Digest != harness.Fingerprint(res) {
				t.Errorf("cell %s: fail %q, digest %s; analysis %s/%g digest %s",
					o.Label, o.Fail, o.Digest, c.Topology, res.OfferedFlitsPerCycle, harness.Fingerprint(res))
			}
			i++
		}
	}
	if i != len(outs) {
		t.Fatalf("analysis gave %d points, benchmark %d cells", i, len(outs))
	}
}

// TestAllreduceMatchesCollectiveSweep pins driver parity for the replay
// workload: the same makespans as the matching
// analysis.CollectiveSweepWith rows, placements included.
func TestAllreduceMatchesCollectiveSweep(t *testing.T) {
	const seed, n, reps = 5, 16, 2
	cfg := allreduceConfig(seed)
	cfg.HostsPerSwitch = 1 // a small workload; parity holds for any configuration
	cs, err := allreduceCells(newTracer(false), cfg, n, reps, seed)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := harness.Run(harness.Serial(), "allreduce", cs)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, topo := range allreduceTopos {
		for _, algo := range allreduceAlgos {
			rows, err := analysis.CollectiveSweepWith(harness.Serial(), cfg, []int{n}, "allreduce", algo, cfg.PacketFlits, reps, seed)
			if err != nil {
				t.Fatal(err)
			}
			var makespans []float64
			for r := 0; r < reps; r++ {
				o := outs[i]
				i++
				if o.Fail != "" {
					t.Fatalf("cell %s failed: %s", o.Label, o.Fail)
				}
				makespans = append(makespans, float64(o.Cycles)*cfg.CycleNS()/1e3)
			}
			mean, _ := stats.MeanAndCI(makespans)
			found := false
			for _, row := range rows {
				if row.Name == topo && row.Routing == "adaptive" {
					found = true
					if row.MakespanUS != mean || row.CompletedRate != 1 {
						t.Errorf("%s/%s: sweep makespan %v us (completed %v), benchmark %v us", topo, algo, row.MakespanUS, row.CompletedRate, mean)
					}
				}
			}
			if !found {
				t.Errorf("%s/%s: no adaptive row in the collective sweep", topo, algo)
			}
		}
	}
}

// TestPerturbedDigestFails shows the output check at work: one wrong
// reference digest fails that cell in every pass, and the result line
// says the run is not correct.
func TestPerturbedDigestFails(t *testing.T) {
	w := shortFig10()
	good := refOf(runOnce(t, w, 1, false).outs)
	bad := append([]refCell(nil), good...)
	bad[2].Digest = strings.Repeat("0", len(bad[2].Digest))
	for _, tc := range []struct {
		ref    []refCell
		failed int
	}{{good, 0}, {bad, 3}} {
		refs := refDigests{w.name: {"1": tc.ref}}
		rep, err := measure(w, 1, 1, false, refs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed != tc.failed || rep.Attempted != 3*len(good) {
			t.Fatalf("failed %d of %d cell runs, want %d of %d", rep.Failed, rep.Attempted, tc.failed, 3*len(good))
		}
		for _, f := range rep.Failures {
			if f.Cell != good[2].Cell || !strings.Contains(f.Reason, "digest") {
				t.Errorf("unexpected failure %+v", f)
			}
		}
		var out bytes.Buffer
		if err := rep.print(&out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		want := `{"correct":` + strconv.FormatBool(tc.failed == 0)
		if last := lines[len(lines)-1]; !strings.HasPrefix(last, want) {
			t.Errorf("last line %q, want prefix %q", last, want)
		}
	}
}

// TestCellCheckFails covers a cell that trips its own check: the verdict
// carries the cell's reason even when the digest matches.
func TestCellCheckFails(t *testing.T) {
	outs := []cellOut{{Label: "a", Digest: "x"}, {Label: "b", Digest: "y", Fail: "monitor watchdog: stuck"}}
	v := verdicts(outs, refOf(outs))
	if v[0] != "" || v[1] != "monitor watchdog: stuck" {
		t.Fatalf("verdicts %q", v)
	}
}

// TestSpanAccounting checks the traced run's bookkeeping on a real pass:
// spans nest, self times are never negative, and layer self times plus
// the uncovered time add up to the traced CPU time.
func TestSpanAccounting(t *testing.T) {
	p := runOnce(t, shortFig10(), 1, true)
	self := selfTimes(p.spans)
	for i, s := range p.spans {
		if self[i] < 0 || s.End < s.Start {
			t.Errorf("span %d %s: self %d, [%d,%d]", i, s.Name, self[i], s.Start, s.End)
		}
		if s.Parent >= 0 {
			par := p.spans[s.Parent]
			if s.Start < par.Start || s.End > par.End || (par.Name == spanCell && s.Cell != par.Cell) {
				t.Errorf("span %d %s escapes its parent %s", i, s.Name, par.Name)
			}
		}
	}
	byLayer, uncovered := layerSelf(p.spans)
	sum := uncovered
	for _, name := range []string{spanHarness, spanTopology, spanRouting, spanMultipath, spanScenario,
		spanCertify, spanDAG, spanSimNew, spanRunVCT, spanRunWormhole} {
		sum += byLayer[name]
	}
	if tot := passCPU(p.spans); sum != tot {
		t.Fatalf("layer self times + uncovered = %d ns, pass less probes = %d ns", sum, tot)
	}

	m := layerMetrics([]passResult{p}, []passResult{p})
	ms := m["trace.uncovered_ms"] + 1e3*(m["netsim.vct.run_s"]+m["netsim.worm.run_s"])
	for _, name := range []string{"harness.self_ms", "topology.build_ms", "routing.build_ms", "multipath.build_ms",
		"chaos.scenario_ms", "verify.certify_ms", "collectives.dag_ms", "netsim.new_ms"} {
		ms += m[name]
	}
	if math.Abs(ms-m["trace.cpu_ms"]) > 1e-6*m["trace.cpu_ms"] {
		t.Fatalf("reported layer times sum to %v ms, trace.cpu_ms is %v", ms, m["trace.cpu_ms"])
	}
	if m["netsim.allocs_per_kcycle"] <= 0 || m["netsim.cycles"] <= 0 || m["netsim.pkts_delivered"] <= 0 {
		t.Errorf("traced counts missing: %v", m)
	}
}

// TestMetricNames keeps BENCHMARK.json, the metric tables and the values
// the program reports in step.
func TestMetricNames(t *testing.T) {
	want, err := benchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `perfbench --spec`:\n%s", want)
	}
	p := runOnce(t, shortFig10(), 1, true)
	check := func(kind string, reported map[string]float64, names []string) {
		if len(reported) != len(names) {
			t.Errorf("%s: program reports %d metrics, table lists %d", kind, len(reported), len(names))
		}
		for _, n := range names {
			if _, ok := reported[n]; !ok {
				t.Errorf("%s metric %s is not reported", kind, n)
			}
		}
	}
	var e2e, layer []string
	for _, d := range endToEnd {
		e2e = append(e2e, d.Name)
	}
	for _, d := range perLayer {
		layer = append(layer, d.Name)
	}
	check("end-to-end", e2eMetrics([]passResult{p}, 1, 0), e2e)
	check("per-layer", layerMetrics([]passResult{p}, []passResult{p}), layer)
}

// TestChaosCasesHalfFraction pins the chaos grid's design: every level
// of every factor in four cells, every pair of factors in all four
// combinations.
func TestChaosCasesHalfFraction(t *testing.T) {
	cs := chaosCases()
	if len(cs) != 8 {
		t.Fatalf("%d chaos cells, want 8", len(cs))
	}
	factors := func(c chaosCase) [4]bool {
		return [4]bool{c.multipath, c.kind == chaos.RollingCabinets, c.drain, c.wormhole}
	}
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			seen := map[[2]bool]int{}
			for _, c := range cs {
				f := factors(c)
				seen[[2]bool{f[a], f[b]}]++
			}
			if len(seen) != 4 {
				t.Errorf("factors %d and %d meet in %d combinations, want 4", a, b, len(seen))
			}
		}
	}
}

// TestRefDigests checks that the committed references cover every
// workload at both reference seeds, cell for cell. With -update it
// rewrites them from one pass of each workload.
func TestRefDigests(t *testing.T) {
	if *update {
		refs := refDigests{}
		for _, w := range workloads {
			refs[w.name] = map[string][]refCell{}
			for _, seed := range refSeeds {
				p := runOnce(t, w, seed, false)
				for _, o := range p.outs {
					if o.Fail != "" {
						t.Fatalf("%s seed %d cell %s failed: %s", w.name, seed, o.Label, o.Fail)
					}
				}
				refs[w.name][strconv.FormatUint(seed, 10)] = refOf(p.outs)
			}
		}
		data, err := json.MarshalIndent(refs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(refDigestsFile, data, 0o644); err != nil {
			t.Fatal(err)
		}
		refDigestsJSON = data
	}
	refs, err := loadRefDigests(refDigestsJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range refSeeds {
			ref, ok := refs.lookup(w.name, seed)
			if !ok {
				t.Errorf("no reference digests for %s seed %d", w.name, seed)
				continue
			}
			cs, err := w.plan(newTracer(false), seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(cs) != len(ref) {
				t.Errorf("%s seed %d: %d cells, %d references", w.name, seed, len(cs), len(ref))
			}
		}
	}
}

// TestRunFlags covers the command line: bad input exits non-zero
// without printing a result, --spec prints BENCHMARK.json.
func TestRunFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig10-openloop", "--trace", "2"},
		{"--workload", "fig10-openloop", "--seconds", "0"},
		{"--compare", "only-one.json"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
	var out bytes.Buffer
	if code := run([]string{"--spec"}, &out, &bytes.Buffer{}); code != 0 || !strings.Contains(out.String(), `"run_seconds"`) {
		t.Errorf("--spec: exit %d, output %q", code, out.String())
	}
}

// TestCompareRefusesMismatchedInputs covers the report comparison gate.
func TestCompareRefusesMismatchedInputs(t *testing.T) {
	dir := t.TempDir()
	write := func(name, fp string) string {
		r := &report{Manifest: manifest{Workload: "w", Fingerprint: fp},
			Metrics: map[string]metric{"cpu_s": {Value: 2, Unit: "s"}}}
		path := dir + "/" + name
		if err := r.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a.json", "f1"), write("b.json", "f1"), write("c.json", "f2")
	var out bytes.Buffer
	if err := compareReports(&out, a, b); err != nil || !strings.Contains(out.String(), "cpu_s") {
		t.Errorf("matching reports: %v, %q", err, out.String())
	}
	if err := compareReports(&out, a, c); err == nil {
		t.Error("reports with different fingerprints were compared")
	}
}

// TestPassesRepeat pins what the cache stores: a plain and a traced pass
// give identical cell values, so no host timing reaches them, and the
// engines are deterministic, so references mean something.
func TestPassesRepeat(t *testing.T) {
	w := shortFig10()
	a, b := runOnce(t, w, 2, false), runOnce(t, w, 2, true)
	if !reflect.DeepEqual(a.outs, b.outs) || a.fingerprint != b.fingerprint {
		t.Fatalf("passes differ:\n%+v\n%+v", a.outs, b.outs)
	}
}

// TestSlowdownScaling pins the calibration arithmetic: probes that take
// twice their nominal time halve every reported host time, and probe
// time itself is reported nowhere.
func TestSlowdownScaling(t *testing.T) {
	probe := int64(2 * probeNominalNS)
	spans := []span{
		{Name: spanPass, Parent: -1, Start: 0, End: 1e9 + 2*probe},
		{Name: spanHarness, Parent: 0, Start: 0, End: 1e9 + 2*probe},
		{Name: spanProbe, Parent: 1, Start: 0, End: probe},
		{Name: spanCell, Parent: 1, Cell: 0, Start: probe, End: probe + 4e8},
		{Name: spanRunVCT, Parent: 3, Cell: 0, Start: probe, End: probe + 4e8},
		{Name: spanProbe, Parent: 1, Start: probe + 4e8, End: 2*probe + 4e8},
		{Name: spanCell, Parent: 1, Cell: 1, Start: 2*probe + 4e8, End: 2*probe + 1e9},
		{Name: spanSimNew, Parent: 6, Cell: 1, Start: 2*probe + 4e8, End: 2*probe + 6e8},
		{Name: spanRunVCT, Parent: 6, Cell: 1, Start: 2*probe + 6e8, End: 2*probe + 1e9},
	}
	p := passResult{spans: spans, outs: []cellOut{{Cycles: 1000, Switches: 10}, {Cycles: 1000, Switches: 10}}}
	if got := slowdown(spans); got != 2 {
		t.Fatalf("slowdown %v, want 2", got)
	}
	m := passE2E(p)
	if m.CPUS != 0.5 || m.SetupS != 0.1 || m.RawCPUS != 1 || m.SwitchCyclesPerS != 20000/0.4 {
		t.Fatalf("scaled pass %+v", m)
	}
	if _, uncovered := layerSelf(spans); uncovered != 0 {
		t.Fatalf("uncovered %d ns, want 0: probe time leaked into it", uncovered)
	}
}
