// Command perfbench is the repository benchmark. It runs one named
// workload — a fixed list of simulation cells generated from a seed —
// through harness.Run with one worker and a cache in a fresh temporary
// directory, so every cell misses the cache and pays the store, as a
// first dsnsim or dsnfigs run does. One client runs the cell list in a
// closed loop, pass after pass, for the given number of host seconds.
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics (medians over the passes); with --trace 1 it
// holds the per-layer metrics of a run that alternates plain and traced
// passes. Host times are process CPU time scaled to a reference speed
// (calibrate.go). Every pass checks each cell's outputs: its own
// invariants, and its digest against the committed reference
// (refdigests.json) or, for seeds without one, against the run's first
// pass.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig10-openloop --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --spec > BENCHMARK.json
//	bash perfbench/run.sh --compare old.json new.json
//
// Each run also writes a report (manifest, metrics, per-pass figures,
// cell digests and, when traced, every span) to
// .bench_build/reports/<workload>-seed<seed>-trace<0|1>.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"dsnet/internal/harness"
)

// reportDir is where runs write their reports, relative to the working
// directory.
const reportDir = ".bench_build/reports"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", runSeconds, "host seconds to measure")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	printSpec := fs.Bool("spec", false, "print BENCHMARK.json and exit")
	compare := fs.Bool("compare", false, "compare two reports given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printSpec:
		data, err := benchmarkSpec()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		_, err = stdout.Write(data)
		if err != nil {
			return 1
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare takes two report files")
			return 2
		}
		if err := compareReports(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	refs, err := loadRefDigests(refDigestsJSON)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	rep, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, refs)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	path := filepath.Join(reportDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if err := rep.write(path); err != nil {
		fmt.Fprintln(stderr, "perfbench: report not written:", err)
	}
	if err := rep.print(stdout); err != nil {
		return 1
	}
	return 0
}

// passResult is one run of a workload's cell list.
type passResult struct {
	traced      bool
	wall        time.Duration // wall-clock time of the pass
	spans       []span
	outs        []cellOut
	fingerprint string // of every cell key: the workload's inputs
}

// runPass runs the workload's cells once through a single-worker runner
// whose cache lives in a fresh temporary directory.
func runPass(w workload, seed uint64, clk clock, mem bool) (passResult, error) {
	tr := newTracer(mem)
	start := clk.now()
	tr.begin(spanPass)
	p, err := runCells(tr, w, seed)
	tr.end()
	p.traced, p.spans, p.wall = mem, tr.spans, clk.now()-start
	return p, err
}

func runCells(tr *tracer, w workload, seed uint64) (passResult, error) {
	dir, err := os.MkdirTemp("", "perfbench-cache-")
	if err != nil {
		return passResult{}, err
	}
	defer os.RemoveAll(dir)
	cache, err := harness.OpenCache(dir)
	if err != nil {
		return passResult{}, err
	}
	cs, err := w.plan(tr, seed)
	if err != nil {
		return passResult{}, fmt.Errorf("perfbench: %s: %w", w.name, err)
	}
	keys := make([]any, len(cs))
	for i, c := range cs {
		keys[i] = c.Key.Hash()
	}
	tr.begin(spanHarness)
	outs, st, err := harness.RunStats(&harness.Runner{Jobs: 1, Cache: cache}, w.name, cs)
	tr.end()
	if err != nil {
		return passResult{}, err
	}
	if st.Executed != len(cs) || st.CacheErrors != 0 {
		return passResult{}, fmt.Errorf("perfbench: %s: %d of %d cells executed, %d cache errors; every cell must miss and store",
			w.name, st.Executed, len(cs), st.CacheErrors)
	}
	return passResult{outs: outs, fingerprint: harness.Fingerprint(keys...)}, nil
}

// manifest records what a report was measured on and with which inputs.
type manifest struct {
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	Traced      bool   `json:"traced"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	Workers     int    `json:"workers"`
	Commit      string `json:"commit,omitempty"`
	Engine      string `json:"engine"`
	Cells       int    `json:"cells"`
	Fingerprint string `json:"fingerprint"`
	// References is true when cell digests were checked against the
	// committed references, false when against the run's first pass.
	References bool `json:"references"`
}

func newManifest(w workload, seed uint64, traced bool) manifest {
	m := manifest{
		Workload: w.name, Seed: seed, Traced: traced,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Workers: 1, Engine: harness.EngineVersion,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			m.Commit = rev + dirty
		}
	}
	return m
}

// failure names a cell that failed a check in some pass.
type failure struct {
	Pass   int    `json:"pass"`
	Cell   string `json:"cell"`
	Reason string `json:"reason"`
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured.
type report struct {
	Manifest  manifest          `json:"manifest"`
	Metrics   map[string]metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []failure         `json:"failures,omitempty"`
	Passes    []passMetrics     `json:"passes"`
	Cells     []refCell         `json:"cells"`
	Spans     [][]span          `json:"spans,omitempty"` // traced passes only
}

// measure runs passes until the next one would overrun the budget, once
// the minimum is met: three plain passes, or with tracing two plain and
// two traced passes, alternating.
func measure(w workload, seed uint64, budget time.Duration, traced bool, refs refDigests) (*report, error) {
	clk := newClock()
	rep := &report{Manifest: newManifest(w, seed, traced)}
	ref, hasRef := refs.lookup(w.name, seed)
	rep.Manifest.References = hasRef
	var plain, tpasses []passResult
	for i := 0; ; i++ {
		p, err := runPass(w, seed, clk, traced && i%2 == 1)
		if err != nil {
			return nil, err
		}
		switch {
		case i == 0:
			rep.Manifest.Fingerprint, rep.Manifest.Cells = p.fingerprint, len(p.outs)
			rep.Cells = refOf(p.outs)
			if !hasRef {
				ref = rep.Cells
			}
		case p.fingerprint != rep.Manifest.Fingerprint:
			return nil, errors.New("perfbench: workload inputs changed between passes")
		}
		for ci, v := range verdicts(p.outs, ref) {
			rep.Attempted++
			if v != "" {
				rep.Failed++
				rep.Failures = append(rep.Failures, failure{Pass: i, Cell: p.outs[ci].Label, Reason: v})
			}
		}
		if p.traced {
			tpasses = append(tpasses, p)
			rep.Spans = append(rep.Spans, p.spans)
		} else {
			plain = append(plain, p)
			rep.Passes = append(rep.Passes, passE2E(p))
		}
		if enough(plain, tpasses, traced) && clk.now()+typicalPass(plain) > budget {
			break
		}
	}
	rep.Metrics = map[string]metric{}
	if traced {
		values := layerMetrics(plain, tpasses)
		for _, d := range perLayer {
			rep.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
		}
	} else {
		values := e2eMetrics(plain, rep.Attempted, rep.Failed)
		for _, d := range endToEnd {
			rep.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
		}
	}
	return rep, nil
}

func enough(plain, traced []passResult, tracing bool) bool {
	if tracing {
		return len(plain) >= 2 && len(traced) >= 2
	}
	return len(plain) >= 3
}

// typicalPass is the median wall-clock time of the plain passes so far.
func typicalPass(plain []passResult) time.Duration {
	walls := make([]float64, len(plain))
	for i, p := range plain {
		walls[i] = float64(p.wall)
	}
	return time.Duration(median(walls))
}

func (r *report) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print writes the manifest, one line per metric, any failures, and the
// result object as the last line.
func (r *report) print(w io.Writer) error {
	man, err := json.Marshal(r.Manifest)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "manifest %s\n", man)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics { // dsnlint:ok maprange keys sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	fmt.Fprintf(w, "%-34s %14.6g %s (%d of %d cell runs)\n", "fail_frac",
		float64(r.Failed)/float64(r.Attempted), "ratio", r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAIL pass %d cell %s: %s\n", f.Pass, f.Cell, f.Reason)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// compareReports prints each metric of two reports side by side. Reports
// measured on different inputs are refused: their fingerprints differ.
func compareReports(w io.Writer, oldPath, newPath string) error {
	var a, b report
	for _, x := range []struct {
		path string
		rep  *report
	}{{oldPath, &a}, {newPath, &b}} {
		data, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, x.rep); err != nil {
			return fmt.Errorf("perfbench: %s: %w", x.path, err)
		}
	}
	if a.Manifest.Workload != b.Manifest.Workload || a.Manifest.Fingerprint != b.Manifest.Fingerprint ||
		a.Manifest.Traced != b.Manifest.Traced {
		return fmt.Errorf("perfbench: reports are not comparable: %s/%s/traced=%v vs %s/%s/traced=%v",
			a.Manifest.Workload, a.Manifest.Fingerprint, a.Manifest.Traced,
			b.Manifest.Workload, b.Manifest.Fingerprint, b.Manifest.Traced)
	}
	names := make([]string, 0, len(a.Metrics))
	for name := range a.Metrics { // dsnlint:ok maprange keys sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		old, cur := a.Metrics[name], b.Metrics[name]
		ratio := 0.0
		if old.Value != 0 {
			ratio = cur.Value / old.Value
		}
		fmt.Fprintf(w, "%-34s %14.6g -> %14.6g %s (x%.3f)\n", name, old.Value, cur.Value, old.Unit, ratio)
	}
	return nil
}
