package chaos

import (
	"fmt"

	"dsnet/internal/graph"
	"dsnet/internal/layout"
	"dsnet/internal/netsim"
	"dsnet/internal/recovery"
	"dsnet/internal/traffic"
)

// Target is one (topology, routing) pair under chaos test. NewRouter
// must build a fresh router per call: FaultAware routers mutate their
// tables as faults land, so sharing one instance across runs would leak
// fault state between campaigns.
type Target struct {
	Name      string
	Graph     *graph.Graph
	Layout    *layout.Layout
	NewRouter func() (netsim.Router, error)
	// HopTTL arms the hop-ttl monitor with this per-packet bound when
	// positive (DSN targets use Theorem 1(c)'s 3p+r).
	HopTTL int
	// SafeRate, when positive, overrides Options.Rate for this target.
	// Liveness monitoring needs healthy targets below saturation —
	// above it, queues and head-of-line waits grow without bound and
	// overload is indistinguishable from starvation — so targets with
	// unusual capacity pin their own load: the narrow source-routed
	// custom scheme runs cooler, the intentionally broken config runs
	// hot enough to actually deadlock.
	SafeRate float64
}

// Options configures how the engine drives the simulators.
type Options struct {
	Cfg      netsim.Config
	Rate     float64 // offered load, flits/cycle/host
	Wormhole bool    // drive the wormhole engine instead of VCT

	// HOLBound is the hol-wait monitor's starvation bound. It must
	// comfortably exceed both Config.FaultTimeoutCycles (under faults
	// the VCT transport parks heads up to the timeout by design) and
	// the longest scheduled outage (the wormhole engine legitimately
	// parks worms on a dead channel until its repair).
	HOLBound int64

	// ReconvergeFrac is the post-repair reconvergence floor: a fully
	// repaired chaos run must deliver at least this fraction of the
	// zero-fault golden run's total, or the reconvergence monitor
	// flags it.
	ReconvergeFrac float64

	// Recover arms runtime deadlock detection & recovery (SetRecovery)
	// with the Recovery config on every run, and adds the engine-level
	// recovery-accounting check: a run that ends with confirmed
	// deadlocks neither recovered nor written off as lost trips the
	// "recovery" monitor. Both are value fields on purpose — campaign
	// fingerprints hash Options with %+v.
	Recover  bool
	Recovery recovery.Config
}

// DefaultOptions returns bounded-runtime settings for campaigns: short
// warmup/measure phases, a tight watchdog so wedged runs fail in
// seconds, and monitor bounds consistent with the generators'
// maxOutage.
func DefaultOptions() Options {
	cfg := netsim.Default()
	cfg.WarmupCycles = 5000
	cfg.MeasureCycles = 10000
	cfg.DrainCycles = 200000
	cfg.WatchdogCycles = 60000
	return Options{
		Cfg:            cfg,
		Rate:           0.05,
		HOLBound:       16384,
		ReconvergeFrac: 0.5,
	}
}

// FaultWindow is the injection window matching DefaultOptions: faults
// land after warmup and are repaired before the drain phase begins, so
// every generated campaign is reconvergence-checkable.
func (o Options) FaultWindow() Window {
	return Window{Start: o.Cfg.WarmupCycles, End: o.Cfg.WarmupCycles + o.Cfg.MeasureCycles}
}

// EngineName names the simulator engine these options select.
func (o Options) EngineName() string {
	if o.Wormhole {
		return "wormhole"
	}
	return "vct"
}

// Verdict is the outcome of one scenario run.
type Verdict struct {
	Scenario Scenario
	Target   string
	Engine   string
	Monitor  string // violated monitor name, "" for a clean run
	Detail   string
	Result   netsim.Result
}

func (v Verdict) OK() bool { return v.Monitor == "" }

func (v Verdict) String() string {
	if v.OK() {
		return fmt.Sprintf("%s/%s %s: ok (%d delivered)", v.Target, v.Engine, v.Scenario, v.Result.DeliveredTotal)
	}
	return fmt.Sprintf("%s/%s %s: VIOLATION %s: %s", v.Target, v.Engine, v.Scenario, v.Monitor, v.Detail)
}

// Engine drives chaos campaigns against one target.
type Engine struct {
	T   Target
	Opt Options

	goldenDone bool
	golden     netsim.Result
	goldenMon  string
	goldenErr  error

	// Runs counts simulator runs, mostly to report shrink effort.
	Runs int
}

// New builds an engine after sanity-checking the target and options.
func New(t Target, opt Options) (*Engine, error) {
	if t.Graph == nil || t.NewRouter == nil {
		return nil, fmt.Errorf("chaos: target %q needs a graph and a router factory", t.Name)
	}
	if t.Layout == nil {
		l, err := layout.New(t.Graph.N(), layout.DefaultConfig())
		if err != nil {
			return nil, err
		}
		t.Layout = l
	}
	if err := opt.Cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.Rate <= 0 || opt.Rate > 1 {
		return nil, fmt.Errorf("chaos: offered load %g outside (0,1]", opt.Rate)
	}
	if opt.HOLBound < 0 || opt.ReconvergeFrac < 0 || opt.ReconvergeFrac > 1 {
		return nil, fmt.Errorf("chaos: bad monitor bounds (hol %d, reconverge %g)", opt.HOLBound, opt.ReconvergeFrac)
	}
	return &Engine{T: t, Opt: opt}, nil
}

// RunPlan executes one monitored simulation under the given plan (nil
// or empty = fault-free) and reports the violated monitor, if any. The
// returned error is reserved for configuration problems; monitor trips
// come back as (monitor, detail).
func (e *Engine) RunPlan(plan *netsim.FaultPlan) (netsim.Result, string, string, error) {
	e.Runs++
	rt, err := e.T.NewRouter()
	if err != nil {
		return netsim.Result{}, "", "", err
	}
	pat := traffic.Uniform{Hosts: e.T.Graph.N() * e.Opt.Cfg.HostsPerSwitch}
	newSim := netsim.NewSim
	if e.Opt.Wormhole {
		newSim = netsim.NewWormSim
	}
	s, err := newSim(e.Opt.Cfg, e.T.Graph, rt, pat, e.Opt.Rate)
	if err != nil {
		return netsim.Result{}, "", "", err
	}
	if plan != nil && len(plan.Events) > 0 {
		if err := s.SetFaultPlan(plan); err != nil {
			return netsim.Result{}, "", "", err
		}
	}
	if e.Opt.Recover {
		if err := s.SetRecovery(e.Opt.Recovery); err != nil {
			return netsim.Result{}, "", "", err
		}
	}
	mon := netsim.Monitors{
		Conservation:     true,
		MaxHOLWaitCycles: e.Opt.HOLBound,
	}
	if e.T.HopTTL > 0 {
		mon.HopTTL = int32(e.T.HopTTL)
	}
	if err := s.SetMonitors(mon); err != nil {
		return netsim.Result{}, "", "", err
	}
	res, runErr := s.Run()
	if runErr != nil {
		if name, ok := netsim.ViolatedMonitor(runErr); ok {
			return res, name, runErr.Error(), nil
		}
		return res, "", "", runErr
	}
	// Recovery accounting: every confirmed deadlock must have been
	// resolved — aborted onto the escape network, released by a peer
	// abort, or written off as lost — by the end of the run.
	if e.Opt.Recover {
		if un := res.DeadlocksDetected - res.DeadlocksRecovered - res.DeadlocksReleased - res.DeadlocksLost; un > 0 {
			detail := fmt.Sprintf("%d confirmed deadlocks unresolved at run end (detected %d, recovered %d, released %d, lost %d)",
				un, res.DeadlocksDetected, res.DeadlocksRecovered, res.DeadlocksReleased, res.DeadlocksLost)
			return res, netsim.MonitorRecovery, detail, nil
		}
	}
	return res, "", "", nil
}

// Golden runs (once, cached) the zero-fault baseline. A target whose
// golden run itself trips a monitor is intrinsically broken — its
// verdicts still carry the violation, but reconvergence is not
// checkable against it.
func (e *Engine) Golden() (netsim.Result, string, error) {
	if !e.goldenDone {
		e.golden, e.goldenMon, _, e.goldenErr = e.RunPlan(nil)
		e.goldenDone = true
	}
	return e.golden, e.goldenMon, e.goldenErr
}

// SetGolden preloads the zero-fault golden baseline. Parallel sweep
// cells build a fresh engine per scenario; seeding them with the
// already-measured golden result keeps reconvergence checkable without
// each cell re-running the baseline.
func (e *Engine) SetGolden(res netsim.Result, monitor string) {
	e.golden, e.goldenMon, e.goldenErr = res, monitor, nil
	e.goldenDone = true
}

// fullyRepaired reports whether every failed component is repaired by
// the end of the plan.
func fullyRepaired(p *netsim.FaultPlan) bool {
	edge := map[int]bool{}
	sw := map[int]bool{}
	for _, ev := range p.Events {
		if ev.Edge >= 0 {
			edge[ev.Edge] = !ev.Repair
		} else {
			sw[ev.Switch] = !ev.Repair
		}
	}
	for _, dead := range edge { // dsnlint:ok maprange order-independent any-true reduction
		if dead {
			return false
		}
	}
	for _, dead := range sw { // dsnlint:ok maprange order-independent any-true reduction
		if dead {
			return false
		}
	}
	return true
}

// RunScenario runs one scenario and applies the engine-level
// reconvergence check on top of the simulator's in-run monitors.
func (e *Engine) RunScenario(sc Scenario) (Verdict, error) {
	v := Verdict{Scenario: sc, Target: e.T.Name, Engine: e.Opt.EngineName()}
	res, mon, detail, err := e.RunPlan(sc.Plan)
	if err != nil {
		return v, err
	}
	v.Result, v.Monitor, v.Detail = res, mon, detail
	if v.Monitor != "" {
		return v, nil
	}
	// Post-repair reconvergence: a fully repaired fabric must come back
	// and deliver a sane fraction of the fault-free total.
	golden, goldenMon, goldenErr := e.Golden()
	if goldenErr != nil {
		return v, goldenErr
	}
	if goldenMon == "" && e.Opt.ReconvergeFrac > 0 && fullyRepaired(sc.Plan) {
		floor := int64(e.Opt.ReconvergeFrac * float64(golden.DeliveredTotal))
		if res.DeliveredTotal < floor {
			v.Monitor = netsim.MonitorReconvergence
			v.Detail = fmt.Sprintf(
				"fully repaired run delivered %d packets, below %g x golden %d",
				res.DeliveredTotal, e.Opt.ReconvergeFrac, golden.DeliveredTotal)
		}
	}
	return v, nil
}

// GoldenVerdict runs (cached) the zero-fault baseline and wraps it as
// a campaign verdict under GoldenKind.
func (e *Engine) GoldenVerdict() (Verdict, error) {
	v := Verdict{
		Scenario: Scenario{Kind: GoldenKind, Seed: e.Opt.Cfg.Seed, Plan: netsim.NewFaultPlan()},
		Target:   e.T.Name,
		Engine:   e.Opt.EngineName(),
	}
	res, mon, err := e.Golden()
	if err != nil {
		return v, err
	}
	v.Result = res
	if mon != "" {
		v.Monitor = mon
		v.Detail = "zero-fault golden run tripped a monitor"
	}
	return v, nil
}

// RunCampaign runs the zero-fault golden baseline followed by every
// scenario, and returns all verdicts (golden first).
func (e *Engine) RunCampaign(scs []Scenario) ([]Verdict, error) {
	gv, err := e.GoldenVerdict()
	if err != nil {
		return nil, err
	}
	out := []Verdict{gv}
	for _, sc := range scs {
		v, err := e.RunScenario(sc)
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ShrinkPlan delta-debugs a failing plan down to a minimal event list
// that still trips the same monitor (engine-level reconvergence
// verdicts shrink against the same check). It returns the shrunk plan
// and the number of simulator runs spent.
func (e *Engine) ShrinkPlan(plan *netsim.FaultPlan, monitor string) (*netsim.FaultPlan, int, error) {
	if monitor == "" {
		return nil, 0, fmt.Errorf("chaos: nothing to shrink: no violated monitor")
	}
	runs0 := e.Runs
	var stepErr error
	fails := func(evs []netsim.FaultEvent) bool {
		if stepErr != nil {
			return false
		}
		v, err := e.RunScenario(Scenario{Kind: -1, Plan: netsim.NewFaultPlan(evs...)})
		if err != nil {
			stepErr = err
			return false
		}
		return v.Monitor == monitor
	}
	minimal := Shrink(plan.Events, fails)
	if stepErr != nil {
		return nil, e.Runs - runs0, stepErr
	}
	return netsim.NewFaultPlan(minimal...), e.Runs - runs0, nil
}
