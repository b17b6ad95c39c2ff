// Command dsnchaos runs seeded chaos campaigns against the
// cycle-accurate simulators with the runtime invariant monitors armed
// (progress watchdog, flit conservation, hop-TTL from the 3p+r routing
// diameter theorem, head-of-line starvation, post-repair
// reconvergence). Any campaign that trips a monitor can be shrunk to a
// minimal reproducer and written out as a regression artifact for the
// checked-in corpus under internal/chaos/testdata/repro.
//
// Usage:
//
//	dsnchaos -topo torus,dsn -campaigns 10
//	dsnchaos -topo dsn-v-custom -switching wormhole -seed 7
//	dsnchaos -topo dsn-basic-unsafe -shrink -o repros/
//	dsnchaos -replay internal/chaos/testdata/repro/unsafe-basic-dsn-deadlock.repro
//	dsnchaos -replay repro.repro -recover -drain
//
// Exit status (documented in README.md, stable for CI):
//
//	0  every verdict clean
//	1  operational error (bad flags, unknown target, I/O)
//	2  at least one monitor violation (conservation, hop-ttl,
//	   hol-wait, reconvergence, recovery)
//	3  at least one progress-watchdog trip (the fabric wedged —
//	   netsim.ErrNoProgress); takes precedence over 2
//
// so a bounded invocation doubles as a CI smoke gate that can tell a
// wedged fabric apart from a softer invariant violation.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dsnet"
	"dsnet/internal/harness"
)

type opts struct {
	topos        string
	n            int
	seed         uint64
	campaigns    int
	rate         float64
	switching    string
	fstart, fend int64
	shrink       bool
	out          string
	replay       string
	recover      bool
	stall        int64
	drain        bool
	// Multipath arming: every listed target's router is swapped for the
	// k-shortest-path spraying router over the same graph, so campaigns
	// (and -replay -recover) exercise dead-link re-spray under chaos.
	multipath bool
	k         int
	selector  string
}

// recoveryConfig resolves the -recover/-stallthreshold/-drain flags
// into a detector tuning (the corpus replay defaults unless overridden).
func (o opts) recoveryConfig() dsnet.RecoveryConfig {
	rc := dsnet.ChaosRecoveryConfig()
	if o.stall > 0 {
		rc.StallThresholdCycles = o.stall
	}
	rc.DrainOnFault = o.drain
	return rc
}

// Exit codes (see the package comment).
const (
	exitClean     = 0
	exitError     = 1
	exitViolation = 2
	exitWatchdog  = 3
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses args, runs the campaigns or the replay they ask for,
// prints the verdicts to stdout and returns the exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	var o opts
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.StringVar(&o.topos, "topo", "torus,dsn,dsn-v-custom",
		"comma-separated chaos targets: "+strings.Join(dsnet.ChaosTargetNames, ", "))
	fs.IntVar(&o.n, "n", 36, "number of switches (36 satisfies every DSN variant)")
	fs.Uint64Var(&o.seed, "seed", 1, "campaign seed (scenarios and simulations derive from it)")
	fs.IntVar(&o.campaigns, "campaigns", 5, "scenarios per target")
	fs.Float64Var(&o.rate, "rate", 0, "offered load in flits/cycle/host (0: the target's default)")
	fs.StringVar(&o.switching, "switching", "vct", "simulator engine: vct or wormhole")
	fs.Int64Var(&o.fstart, "faultstart", 0, "fault injection window start cycle (0: after warmup)")
	fs.Int64Var(&o.fend, "faultend", 0, "fault injection window end cycle (0: end of measurement)")
	fs.BoolVar(&o.shrink, "shrink", false, "delta-debug each failing campaign to a minimal reproducer")
	fs.StringVar(&o.out, "o", "", "directory to write shrunk reproducer artifacts into (with -shrink)")
	fs.StringVar(&o.replay, "replay", "", "replay one .repro artifact and verify it still trips its monitor")
	fs.BoolVar(&o.recover, "recover", false, "arm runtime deadlock detection and recovery (with -replay: expect a clean run on both engines instead)")
	fs.Int64Var(&o.stall, "stallthreshold", 0, "stall cycles before a packet is suspected deadlocked (0: recovery default)")
	fs.BoolVar(&o.drain, "drain", false, "with -recover: drain in-flight traffic before swapping routing tables at each fault epoch")
	fs.BoolVar(&o.multipath, "multipath", false, "arm every target with the k-shortest-path spraying router (with -replay -recover: replay against the armed target)")
	fs.IntVar(&o.k, "k", 4, "with -multipath: edge-disjoint paths per pair (1..15)")
	fs.StringVar(&o.selector, "selector", "adaptive", "with -multipath: path selector: "+strings.Join(dsnet.SelectorNames, ", "))
	jobs := fs.Int("j", 0, "parallel scenario workers (0: all CPUs)")
	cache := fs.String("cache", harness.DefaultCacheDir, "sweep result cache directory")
	nocache := fs.Bool("nocache", false, "bypass the sweep result cache")
	bench := fs.String("bench", "", "write machine-readable sweep benchmarks to this JSON file")
	fs.Parse(args)
	// The runner executes scenario cells on a bounded worker pool with an
	// optional content-addressed cache; verdicts are reported in campaign
	// order regardless of execution order.
	runner, err := harness.NewRunner(*jobs, *cache, *nocache)
	if err != nil {
		fmt.Fprintln(stderr, "dsnchaos:", err)
		return exitError
	}
	code, runErr := run(o, runner, stdout)
	if *bench != "" {
		if err := harness.NewReport(runner.Bench, runner.JobCount()).WriteFile(*bench); err != nil {
			fmt.Fprintln(stderr, "dsnchaos:", err)
			return exitError
		}
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "dsnchaos:", runErr)
	}
	return code
}

// tally folds verdict outcomes into the final exit code: watchdog trips
// outrank other monitor violations, which outrank a clean run.
type tally struct {
	watchdog, other int
}

func (t *tally) add(v dsnet.ChaosVerdict) {
	switch v.Monitor {
	case "":
	case dsnet.MonitorWatchdog:
		t.watchdog++
	default:
		t.other++
	}
}

func (t *tally) code() int {
	switch {
	case t.watchdog > 0:
		return exitWatchdog
	case t.other > 0:
		return exitViolation
	}
	return exitClean
}

func run(o opts, runner *harness.Runner, w io.Writer) (int, error) {
	if o.replay != "" {
		return replay(o, w)
	}
	if o.switching != "vct" && o.switching != "wormhole" {
		return exitError, fmt.Errorf("unknown switching mode %q", o.switching)
	}
	if o.campaigns < 1 {
		return exitError, fmt.Errorf("-campaigns %d must be >= 1", o.campaigns)
	}
	var t tally
	for _, name := range strings.Split(o.topos, ",") {
		name = strings.TrimSpace(name)
		if err := campaign(o, runner, w, name, &t); err != nil {
			return exitError, err
		}
	}
	if bad := t.watchdog + t.other; bad > 0 {
		return t.code(), fmt.Errorf("%d scenario(s) tripped a monitor (%d watchdog)", bad, t.watchdog)
	}
	return exitClean, nil
}

// arm resolves the -multipath/-k/-selector flags (nil without
// -multipath).
func (o opts) arm() (*dsnet.ChaosArm, error) {
	if !o.multipath {
		return nil, nil
	}
	sel, err := dsnet.ParseSelector(o.selector)
	if err != nil {
		return nil, err
	}
	return &dsnet.ChaosArm{K: o.k, Selector: sel}, nil
}

// campaign runs one target's campaign grid and reports its verdicts,
// golden first.
func campaign(o opts, runner *harness.Runner, w io.Writer, name string, t *tally) error {
	arm, err := o.arm()
	if err != nil {
		return err
	}
	s := dsnet.ChaosSetup{Target: name, N: o.n, Wormhole: o.switching == "wormhole",
		Rate: o.rate, Multipath: arm, Seed: o.seed}
	if o.recover {
		rc := o.recoveryConfig()
		s.Recovery = &rc
	}
	if o.fstart > 0 || o.fend > 0 {
		s.Window = dsnet.ChaosWindow{Start: o.fstart, End: o.fend}
	}
	g, err := dsnet.NewChaosGrid([]dsnet.ChaosSetup{s}, o.campaigns)
	if err != nil {
		return err
	}
	e := g.Engines[0]
	fmt.Fprintf(w, "# chaos campaign: %s / %s, %d switches, seed %d, %d scenarios + golden\n",
		e.T.Name, e.Opt.EngineName(), e.T.Graph.N(), o.seed, len(g.Scenarios[0]))
	verdicts, err := g.Run(context.Background(), runner)
	if err != nil {
		return err
	}
	for _, v := range verdicts[0] {
		if err := report(o, w, e, v, t); err != nil {
			return err
		}
	}
	return nil
}

// report prints one verdict, folds it into the exit-code tally, and on
// a violation with -shrink emits the minimal reproducer.
func report(o opts, w io.Writer, e *dsnet.ChaosEngine, v dsnet.ChaosVerdict, t *tally) error {
	fmt.Fprintln(w, v)
	t.add(v)
	if v.OK() || !o.shrink {
		return nil
	}
	shrunk, runs, err := e.ShrinkPlan(v.Scenario.Plan, v.Monitor)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  shrunk %d -> %d events in %d runs\n", len(v.Scenario.Plan.Events), len(shrunk.Events), runs)
	r := &dsnet.ChaosRepro{
		Target: v.Target, N: e.T.Graph.N(), Engine: v.Engine,
		Rate: e.Opt.Rate, Seed: e.Opt.Cfg.Seed,
		Watchdog: e.Opt.Cfg.WatchdogCycles, HOL: e.Opt.HOLBound,
		TTL: e.T.HopTTL > 0, Monitor: v.Monitor, Events: shrunk.Events,
	}
	if o.out == "" {
		w.Write(r.Marshal())
		return nil
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	file := filepath.Join(o.out, fmt.Sprintf("%s-%s-%s-%s-seed%d.repro", v.Target, v.Engine, v.Scenario.Kind, v.Monitor, v.Scenario.Seed))
	if err := os.WriteFile(file, r.Marshal(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "  wrote %s\n", file)
	return nil
}

func replay(o opts, w io.Writer) (int, error) {
	data, err := os.ReadFile(o.replay)
	if err != nil {
		return exitError, err
	}
	r, err := dsnet.ParseChaosRepro(data)
	if err != nil {
		return exitError, err
	}
	if o.recover {
		return replayRecovered(o, w, r)
	}
	if o.multipath {
		return exitError, fmt.Errorf("-replay -multipath requires -recover (an armed replay is judged by recovery accounting, not by reproducing the recorded monitor)")
	}
	if err := r.Verify(); err != nil {
		// The repro is expected to trip its recorded monitor; running
		// clean (or tripping the wrong one) is an operational failure
		// of the corpus, not a fabric verdict.
		return exitError, err
	}
	fmt.Fprintf(w, "%s: reproduced %s on %s/%s\n", filepath.Base(o.replay), r.Monitor, r.Target, r.Engine)
	return exitClean, nil
}

// replayRecovered replays one reproducer with the runtime deadlock
// detector armed with the -stallthreshold and -drain tuning, on both
// engines: a scenario that wedges the fabric without recovery must now
// complete with zero unresolved deadlocks. The exit code classifies any
// residual violation like a campaign would.
func replayRecovered(o opts, w io.Writer, r *dsnet.ChaosRepro) (int, error) {
	arm, err := o.arm()
	if err != nil {
		return exitError, err
	}
	var t tally
	for _, engine := range []string{"vct", "wormhole"} {
		v, err := r.RunRecovered(engine, o.recoveryConfig(), arm)
		if err != nil {
			return exitError, err
		}
		t.add(v)
		status := "clean"
		if !v.OK() {
			status = fmt.Sprintf("VIOLATION %s: %s", v.Monitor, v.Detail)
		}
		fmt.Fprintf(w, "%s: recovered replay on %s/%s: %s (detected %d, recovered %d, released %d, lost %d, aborted flits %d)\n",
			filepath.Base(o.replay), v.Target, engine, status,
			v.Result.DeadlocksDetected, v.Result.DeadlocksRecovered,
			v.Result.DeadlocksReleased, v.Result.DeadlocksLost, v.Result.AbortedFlits)
	}
	if bad := t.watchdog + t.other; bad > 0 {
		return t.code(), fmt.Errorf("%d recovered replay(s) still tripped a monitor", bad)
	}
	return exitClean, nil
}
