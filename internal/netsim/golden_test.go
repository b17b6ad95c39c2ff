package netsim_test

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dsnet/internal/collectives"
	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/harness"
	"dsnet/internal/layout"
	"dsnet/internal/multipath"
	"dsnet/internal/netsim"
	"dsnet/internal/recovery"
	"dsnet/internal/topology"
	"dsnet/internal/traffic"
)

var updateGoldens = flag.Bool("update", false, "rewrite testdata/result_goldens.txt from the current engines")

const goldensFile = "testdata/result_goldens.txt"

// goldenRun is one short simulation pinned by its full-Result digest.
// Routers carry fault state, so each engine run builds its own.
type goldenRun struct {
	g       *graph.Graph
	router  func(vcs int) (netsim.Router, error)
	cfg     netsim.Config
	rate    float64
	replay  *netsim.Replay
	layout  *layout.Layout // non-nil: cable-aware link delays at 5 ns/m
	plan    *netsim.FaultPlan
	mon     netsim.Monitors
	rec     *recovery.Config
	engines []string // default: both
	// check, when set, asserts the run still exercises what its name
	// says (a fault epoch fired, recovery aborted, ...).
	check func(netsim.Result, error) error
}

func (r goldenRun) build(engine string) (*netsim.Sim, error) {
	rt, err := r.router(r.cfg.VCs)
	if err != nil {
		return nil, err
	}
	newSim := netsim.NewSim
	if engine == "wormhole" {
		newSim = netsim.NewWormSim
	}
	s, err := newSim(r.cfg, r.g, rt, traffic.Uniform{Hosts: r.g.N() * r.cfg.HostsPerSwitch}, r.rate)
	if err != nil {
		return nil, err
	}
	if r.replay != nil {
		if err := s.SetReplay(r.replay); err != nil {
			return nil, err
		}
	}
	if r.layout != nil {
		if err := s.SetCableDelays(r.layout, 5); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// digest runs the simulation and fingerprints every field of the Result
// together with the run error, so runs that end on a monitor or the
// watchdog are pinned too.
func (r goldenRun) digest(engine string) (string, error) {
	s, err := r.build(engine)
	if err != nil {
		return "", err
	}
	if r.plan != nil {
		if err := s.SetFaultPlan(r.plan); err != nil {
			return "", err
		}
	}
	if err := s.SetMonitors(r.mon); err != nil {
		return "", err
	}
	if r.rec != nil {
		if err := s.SetRecovery(*r.rec); err != nil {
			return "", err
		}
	}
	res, runErr := s.Run()
	errText := ""
	if runErr != nil {
		errText = runErr.Error()
	}
	if r.check != nil {
		if err := r.check(res, runErr); err != nil {
			return "", fmt.Errorf("run no longer covers its case: %w", err)
		}
	}
	// %#v prints every field; Result's String method would print five.
	return harness.Fingerprint(fmt.Sprintf("%#v", res), errText), nil
}

func goldenCfg() netsim.Config {
	cfg := netsim.Default()
	cfg.WarmupCycles = 1000
	cfg.MeasureCycles = 2000
	cfg.DrainCycles = 3000
	cfg.WatchdogCycles = 20000
	return cfg
}

func duato(g *graph.Graph) func(int) (netsim.Router, error) {
	return func(vcs int) (netsim.Router, error) { return netsim.NewDuatoUpDown(g, vcs) }
}

func dsnCustom(d *core.DSN) func(int) (netsim.Router, error) {
	return func(int) (netsim.Router, error) { return netsim.NewDSNSourceRouted(d) }
}

func mpRouter(g *graph.Graph, sel multipath.Selector) func(int) (netsim.Router, error) {
	return func(vcs int) (netsim.Router, error) {
		return multipath.New(g, multipath.Config{K: 4, VCs: vcs, Selector: sel, Seed: 1})
	}
}

// goldenRuns covers what perfbench's reference digests do not: the
// other routers, pinned parallel links, multipath selectors, saturation,
// faults with repair under live swap and drain, recovery that confirms
// and aborts, cable-aware delays, replay, a 2-VC fabric, and the VCT
// allocator's blocked-head and blocked-host paths.
func goldenRuns(t *testing.T) map[string]goldenRun {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	tor, err := topology.Torus2D(4, 4)
	must(err)
	dsnV, err := core.NewV(36)
	must(err)
	dsnE, err := core.NewE(36)
	must(err)
	basic, err := core.New(36, core.CeilLog2(36)-1)
	must(err)
	lay, err := layout.New(36, layout.DefaultConfig())
	must(err)
	tg, vg := tor.Graph(), dsnV.Graph()

	cfg := goldenCfg()
	vcs2 := cfg
	vcs2.VCs = 2
	// The detour-heavy and deadlocking runs need long drains and the
	// aggressive chaos tuning (act before the watchdog).
	longCfg := cfg
	longCfg.DrainCycles = 12000
	aggressive := recovery.Default()
	aggressive.StallThresholdCycles = 1024
	aggressive.ConfirmCycles = 256
	drain := aggressive
	drain.DrainOnFault = true

	faults := netsim.NewFaultPlan(
		netsim.LinkDown(1500, 5),
		netsim.SwitchDown(2000, 7),
		netsim.LinkDown(2200, 40),
		netsim.LinkUp(3000, 5),
		netsim.SwitchUp(3500, 7),
	)
	torusFaults := netsim.NewFaultPlan(
		netsim.LinkDown(800, 3),
		netsim.SwitchDown(1200, 6),
		netsim.LinkDown(1300, 20),
		netsim.LinkUp(2500, 3),
		netsim.SwitchUp(3000, 6),
	)
	conserve := netsim.Monitors{Conservation: true}

	ring, err := collectives.Generate("allreduce", "ring", tg.N()*cfg.HostsPerSwitch, cfg.PacketFlits)
	must(err)
	hd, err := collectives.Generate("allreduce", "halving-doubling", tg.N()*cfg.HostsPerSwitch, cfg.PacketFlits)
	must(err)
	d16, err := core.New(16, core.CeilLog2(16)-1)
	must(err)
	hd16, err := collectives.Generate("allreduce", "halving-doubling", d16.N*cfg.HostsPerSwitch, cfg.PacketFlits)
	must(err)
	unsafeBasic := func(int) (netsim.Router, error) { return netsim.NewDSNSourceRoutedUnsafe(basic) }
	lastCycleDeath := netsim.NewFaultPlan(netsim.SwitchDown(cfg.WarmupCycles+cfg.MeasureCycles+cfg.DrainCycles-1, 5))
	vct := []string{"vct"}

	return map[string]goldenRun{
		"updown-only/torus16": {g: tg, cfg: cfg, rate: 0.03, router: func(vcs int) (netsim.Router, error) {
			return netsim.NewUpDownOnly(tg, vcs)
		}},
		"valiant/torus16": {g: tg, cfg: cfg, rate: 0.04, router: func(vcs int) (netsim.Router, error) {
			return netsim.NewValiant(tg, vcs)
		}},
		"dor/torus16": {g: tg, cfg: cfg, rate: 0.05, router: func(vcs int) (netsim.Router, error) {
			return netsim.NewDORTorus(tor, vcs)
		}},
		"duato/dsn-e36":        {g: dsnE.Graph(), cfg: cfg, rate: 0.05, router: duato(dsnE.Graph())},
		"dsn-custom/dsn-e36":   {g: dsnE.Graph(), cfg: cfg, rate: 0.02, router: dsnCustom(dsnE)},
		"dsn-custom/dsn-v36":   {g: vg, cfg: cfg, rate: 0.02, router: dsnCustom(dsnV)},
		"mp-static-k4/dsn-v36": {g: vg, cfg: cfg, rate: 0.04, router: mpRouter(vg, multipath.SelectorStatic)},
		"mp-rr-k4/dsn-v36":     {g: vg, cfg: cfg, rate: 0.04, router: mpRouter(vg, multipath.SelectorRR)},
		"mp-adaptive-k4/dsn-v36": {g: vg, cfg: cfg, rate: 0.04,
			router: mpRouter(vg, multipath.SelectorAdaptive)},
		"duato/torus16/saturated": {g: tg, cfg: cfg, rate: 0.6, router: duato(tg),
			check: expect("saturation", func(r netsim.Result) bool { return r.Saturated })},
		"duato/dsn-v36/faults-live": {g: vg, cfg: longCfg, rate: 0.04, router: duato(vg),
			plan: faults, mon: conserve, check: rerouted},
		"duato/dsn-v36/faults-drain": {g: vg, cfg: longCfg, rate: 0.04, router: duato(vg),
			plan: faults, mon: conserve, rec: &drain, check: drained},
		"mp-adaptive-k4/dsn-v36/faults-live-recover": {g: vg, cfg: longCfg, rate: 0.04,
			router: mpRouter(vg, multipath.SelectorAdaptive), plan: faults, mon: conserve, rec: &aggressive,
			check: rerouted},
		"dsn-custom/dsn-v36/faults-drain": {g: vg, cfg: longCfg, rate: 0.02, router: dsnCustom(dsnV),
			plan: faults, mon: conserve, rec: &drain, check: drained},
		"unsafe-basic-dsn36/recovered": {g: basic.Graph(), cfg: cfg, rate: 0.30, router: unsafeBasic,
			mon: netsim.Monitors{Conservation: true, MaxHOLWaitCycles: 16384}, rec: &aggressive,
			check: expect("a confirmed and aborted deadlock", func(r netsim.Result) bool {
				return r.DeadlocksDetected > 0 && r.AbortedFlits > 0
			})},
		"duato/dsn-v36/cable-aware": {g: vg, cfg: cfg, rate: 0.05, router: duato(vg), layout: lay},
		"duato/torus16/replay-ring": {g: tg, cfg: cfg, router: duato(tg),
			replay: collectives.ToReplay(ring.Permuted(3)), mon: conserve,
			check: expect("a completed replay", func(r netsim.Result) bool { return r.ReplayCompleted })},
		// Collectives under failure are a VCT experiment: the wormhole
		// engine has no drop/retry transport (see Sim.SetReplay).
		"duato/torus16/replay-hd-faults": {g: tg, cfg: longCfg, router: duato(tg),
			replay: collectives.ToReplay(hd.Permuted(5)), plan: torusFaults, mon: conserve, check: rerouted,
			engines: []string{"vct"}},
		"duato/torus16/vcs2": {g: tg, cfg: vcs2, rate: 0.05, router: duato(tg)},
		// The blocked-head paths: the HOL-wait monitor tripping on a
		// wedged fabric and the HOL-wait maximum of heads still wedged at
		// the end of a run (both engines), and of wedged heads at a
		// switch that dies (switch 5 holds the longest wait at rate 0.10
		// and dies in the last cycle); on VCT also head-of-line fault
		// timeouts with a switch down and repaired, and hosts that wait
		// for injection credits (one-packet chunks queue a whole message
		// at each host).
		"unsafe-basic-dsn36/hol-monitor": {g: basic.Graph(), cfg: cfg, rate: 0.30, router: unsafeBasic,
			mon: netsim.Monitors{MaxHOLWaitCycles: 2000}, check: holTripped},
		"unsafe-basic-dsn36/wedged": {g: basic.Graph(), cfg: cfg, rate: 0.30, router: unsafeBasic,
			check: expect("heads still wedged at the end", func(r netsim.Result) bool {
				return r.InFlightAtEnd > 0 && r.MaxHOLWaitCycles > cfg.DrainCycles
			})},
		"unsafe-basic-dsn36/wedged-switch-dies": {g: basic.Graph(), cfg: cfg, rate: 0.10, router: unsafeBasic,
			plan: lastCycleDeath, engines: vct, check: expect("wedged heads dropped with their switch", func(r netsim.Result) bool {
				return r.Dropped > 0 && r.MaxHOLWaitCycles > cfg.DrainCycles
			})},
		// Fail-stop never drops a worm, so on wormhole the switch death
		// leaves the wedged headers in place.
		"unsafe-basic-dsn36/wedged-switch-dies-failstop": {g: basic.Graph(), cfg: cfg, rate: 0.10, router: unsafeBasic,
			plan: lastCycleDeath, engines: []string{"wormhole"}, check: expect("wedged headers left in place", func(r netsim.Result) bool {
				return r.InFlightAtEnd > 0 && r.MaxHOLWaitCycles > cfg.DrainCycles
			})},
		"duato/dsn-v36/switch-timeouts": {g: vg, cfg: longCfg, rate: 0.05, router: duato(vg),
			plan: netsim.NewFaultPlan(netsim.SwitchDown(1500, 7), netsim.SwitchUp(6000, 7)), mon: conserve,
			engines: vct, check: expect("head-of-line timeouts", func(r netsim.Result) bool { return r.TimedOut > 0 })},
		"duato/dsn16/replay-hd-packets": {g: d16.Graph(), cfg: cfg, router: duato(d16.Graph()),
			replay: collectives.ToReplay(hd16.Permuted(1)), mon: conserve, engines: vct,
			check: expect("a completed replay", func(r netsim.Result) bool { return r.ReplayCompleted })},
	}
}

// holTripped checks that a run ended on the HOL-wait monitor.
func holTripped(_ netsim.Result, err error) error {
	var mv *netsim.MonitorViolation
	if !errors.As(err, &mv) || mv.Monitor != netsim.MonitorHOLWait {
		return fmt.Errorf("expected a hol-wait violation, got %v", err)
	}
	return nil
}

// expect builds a coverage check from a predicate on the Result.
func expect(what string, ok func(netsim.Result) bool) func(netsim.Result, error) error {
	return func(r netsim.Result, err error) error {
		if err != nil {
			return err
		}
		if !ok(r) {
			return fmt.Errorf("expected %s", what)
		}
		return nil
	}
}

var (
	rerouted = expect("fault-detoured packets", func(r netsim.Result) bool { return r.Rerouted > 0 })
	drained  = expect("a drain epoch", func(r netsim.Result) bool { return r.DrainEpochs > 0 })
)

func readGoldens(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldensFile)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestResultGoldens -update)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func writeGoldens(t *testing.T, got map[string]string) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("# Full-Result digests (harness.Fingerprint of Result as %#v + run error) of\n")
	b.WriteString("# short runs on both engines; see golden_test.go. Regenerate only for an\n")
	b.WriteString("# intended behavior change: go test ./internal/netsim -run TestResultGoldens -update\n")
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", name, got[name])
	}
	if err := os.MkdirAll(filepath.Dir(goldensFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldensFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResultGoldens pins every Result byte of a set of short runs on
// both engines to committed digests, so engine rewrites can prove they
// changed no simulated behavior. Only -update rewrites the file.
func TestResultGoldens(t *testing.T) {
	runs := goldenRuns(t)
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	got := map[string]string{}
	for _, name := range names {
		r := runs[name]
		engines := r.engines
		if engines == nil {
			engines = []string{"vct", "wormhole"}
		}
		for _, engine := range engines {
			d, err := r.digest(engine)
			if err != nil {
				t.Fatalf("%s/%s: %v", engine, name, err)
			}
			got[engine+"/"+name] = d
		}
	}
	if *updateGoldens {
		writeGoldens(t, got)
		return
	}
	want := readGoldens(t)
	for _, key := range sortedKeys(got) {
		switch w, ok := want[key]; {
		case !ok:
			t.Errorf("%s: no committed golden (run with -update)", key)
		case w != got[key]:
			t.Errorf("%s: Result digest %s, golden %s", key, got[key], w)
		}
	}
	for _, key := range sortedKeys(want) {
		if _, ok := got[key]; !ok {
			t.Errorf("%s: committed golden has no run", key)
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
