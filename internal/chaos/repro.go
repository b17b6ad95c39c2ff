package chaos

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"dsnet/internal/core"
	"dsnet/internal/netsim"
	"dsnet/internal/recovery"
	"dsnet/internal/topology"
)

// Repro is a self-contained, checked-in reproducer for one monitor
// violation: everything needed to rebuild the target and replay the
// (usually shrunk) fault plan. The text form is line-oriented so diffs
// of the regression corpus stay readable.
type Repro struct {
	Target   string // BuildTarget name
	N        int    // switches
	Engine   string // "vct" or "wormhole"
	Rate     float64
	Seed     uint64
	Watchdog int64
	HOL      int64
	TTL      bool   // arm the target's hop-ttl bound
	Monitor  string // the monitor this plan must trip
	Events   []netsim.FaultEvent
}

// Marshal renders the canonical text form.
func (r *Repro) Marshal() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "# dsnchaos reproducer: %s on %s/%s\n", r.Monitor, r.Target, r.Engine)
	fmt.Fprintf(&b, "v1\n")
	fmt.Fprintf(&b, "target %s\n", r.Target)
	fmt.Fprintf(&b, "n %d\n", r.N)
	fmt.Fprintf(&b, "engine %s\n", r.Engine)
	fmt.Fprintf(&b, "rate %g\n", r.Rate)
	fmt.Fprintf(&b, "seed %d\n", r.Seed)
	fmt.Fprintf(&b, "watchdog %d\n", r.Watchdog)
	fmt.Fprintf(&b, "hol %d\n", r.HOL)
	fmt.Fprintf(&b, "ttl %v\n", r.TTL)
	fmt.Fprintf(&b, "monitor %s\n", r.Monitor)
	for _, ev := range netsim.NewFaultPlan(r.Events...).Events {
		verb := "down"
		if ev.Repair {
			verb = "up"
		}
		if ev.Edge >= 0 {
			fmt.Fprintf(&b, "%s link %d @ %d\n", verb, ev.Edge, ev.Cycle)
		} else {
			fmt.Fprintf(&b, "%s switch %d @ %d\n", verb, ev.Switch, ev.Cycle)
		}
	}
	return []byte(b.String())
}

// ParseRepro reads the text form back.
func ParseRepro(data []byte) (*Repro, error) {
	r := &Repro{}
	sawVersion := false
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if !sawVersion {
			if text != "v1" {
				return nil, fmt.Errorf("chaos: repro line %d: want version header v1, got %q", line, text)
			}
			sawVersion = true
			continue
		}
		f := strings.Fields(text)
		bad := func() error { return fmt.Errorf("chaos: repro line %d: cannot parse %q", line, text) }
		var err error
		switch f[0] {
		case "target":
			if len(f) != 2 {
				return nil, bad()
			}
			r.Target = f[1]
		case "n":
			if len(f) != 2 {
				return nil, bad()
			}
			r.N, err = strconv.Atoi(f[1])
		case "engine":
			if len(f) != 2 || (f[1] != "vct" && f[1] != "wormhole") {
				return nil, bad()
			}
			r.Engine = f[1]
		case "rate":
			if len(f) != 2 {
				return nil, bad()
			}
			r.Rate, err = strconv.ParseFloat(f[1], 64)
		case "seed":
			if len(f) != 2 {
				return nil, bad()
			}
			r.Seed, err = strconv.ParseUint(f[1], 10, 64)
		case "watchdog":
			if len(f) != 2 {
				return nil, bad()
			}
			r.Watchdog, err = strconv.ParseInt(f[1], 10, 64)
		case "hol":
			if len(f) != 2 {
				return nil, bad()
			}
			r.HOL, err = strconv.ParseInt(f[1], 10, 64)
		case "ttl":
			if len(f) != 2 {
				return nil, bad()
			}
			r.TTL, err = strconv.ParseBool(f[1])
		case "monitor":
			if len(f) != 2 {
				return nil, bad()
			}
			r.Monitor = f[1]
		case "down", "up":
			if len(f) != 5 || f[3] != "@" {
				return nil, bad()
			}
			id, err1 := strconv.Atoi(f[2])
			cycle, err2 := strconv.ParseInt(f[4], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, bad()
			}
			var ev netsim.FaultEvent
			switch f[1] {
			case "link":
				ev = netsim.LinkDown(cycle, id)
			case "switch":
				ev = netsim.SwitchDown(cycle, id)
			default:
				return nil, bad()
			}
			ev.Repair = f[0] == "up"
			r.Events = append(r.Events, ev)
		default:
			return nil, fmt.Errorf("chaos: repro line %d: unknown directive %q", line, f[0])
		}
		if err != nil {
			return nil, bad()
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawVersion {
		return nil, fmt.Errorf("chaos: repro has no version header")
	}
	if r.Target == "" || r.N == 0 || r.Engine == "" || r.Monitor == "" {
		return nil, fmt.Errorf("chaos: repro missing target/n/engine/monitor")
	}
	return r, nil
}

// BuildTarget constructs a named chaos target. The names are shared by
// cmd/dsnchaos and the repro corpus, so a checked-in reproducer stays
// replayable by name alone.
func BuildTarget(name string, n int) (Target, error) {
	t := Target{Name: name}
	switch name {
	case "torus":
		tor, err := topology.Torus2DFor(n)
		if err != nil {
			return t, err
		}
		t.Graph = tor.Graph()
		t.NewRouter = func() (netsim.Router, error) {
			return netsim.NewDuatoUpDown(t.Graph, netsim.Default().VCs)
		}
	case "random":
		g, err := topology.DLNRandom(n, 2, 2, 1)
		if err != nil {
			return t, err
		}
		t.Graph = g
		t.NewRouter = func() (netsim.Router, error) {
			return netsim.NewDuatoUpDown(t.Graph, netsim.Default().VCs)
		}
	case "dsn":
		d, err := core.New(n, core.CeilLog2(n)-1)
		if err != nil {
			return t, err
		}
		t.Graph = d.Graph()
		t.NewRouter = func() (netsim.Router, error) {
			return netsim.NewDuatoUpDown(t.Graph, netsim.Default().VCs)
		}
	case "dsn-v-custom":
		d, err := core.NewV(n)
		if err != nil {
			return t, err
		}
		t.Graph = d.Graph()
		t.HopTTL = d.RoutingDiameterBound()
		// The source-routed custom scheme saturates near 0.03
		// flits/cycle/host at campaign sizes; stay clearly under it.
		t.SafeRate = 0.02
		t.NewRouter = func() (netsim.Router, error) {
			return netsim.NewDSNSourceRouted(d)
		}
	case "dsn-basic-unsafe":
		// The deliberately broken configuration: the basic variant's
		// custom routing shares ring channels between phases, its CDG
		// provably cycles (dsnverify flags it), and under load the
		// simulated fabric genuinely deadlocks — the monitors must
		// catch it at runtime.
		d, err := core.New(n, core.CeilLog2(n)-1)
		if err != nil {
			return t, err
		}
		t.Graph = d.Graph()
		t.HopTTL = d.RoutingDiameterBound()
		// Hot enough that the phase-sharing ring channels actually
		// wedge within the watchdog horizon.
		t.SafeRate = 0.30
		t.NewRouter = func() (netsim.Router, error) {
			return netsim.NewDSNSourceRoutedUnsafe(d)
		}
	default:
		return t, fmt.Errorf("chaos: unknown target %q (want torus, random, dsn, dsn-v-custom, dsn-basic-unsafe)", name)
	}
	return t, nil
}

// TargetNames lists the BuildTarget names.
var TargetNames = []string{"torus", "random", "dsn", "dsn-v-custom", "dsn-basic-unsafe"}

// engine builds the chaos engine a reproducer's settings describe.
func (r *Repro) engine() (*Engine, error) {
	t, err := BuildTarget(r.Target, r.N)
	if err != nil {
		return nil, err
	}
	if !r.TTL {
		t.HopTTL = 0
	}
	opt := DefaultOptions()
	opt.Rate = r.Rate
	opt.Wormhole = r.Engine == "wormhole"
	opt.Cfg.Seed = r.Seed
	if r.Watchdog > 0 {
		opt.Cfg.WatchdogCycles = r.Watchdog
	}
	opt.HOLBound = r.HOL
	// Give deadlocks room to be caught after the monitors' bounds.
	if d := 8 * opt.Cfg.WatchdogCycles; opt.Cfg.DrainCycles < d {
		opt.Cfg.DrainCycles = d
	}
	return New(t, opt)
}

// Run replays the reproducer and returns the violated monitor ("" if
// the run came back clean).
func (r *Repro) Run() (string, string, error) {
	e, err := r.engine()
	if err != nil {
		return "", "", err
	}
	v, err := e.RunScenario(Scenario{Kind: -1, Seed: r.Seed, Plan: netsim.NewFaultPlan(r.Events...)})
	if err != nil {
		return "", "", err
	}
	return v.Monitor, v.Detail, nil
}

// RecoveredReplayConfig is the detector tuning used when replaying the
// corpus with recovery armed. The thresholds are aggressive so that on
// the VCT engine a confirmed abort (stall + confirm = 1280 cycles)
// lands before the fault-transport timeout (FaultTimeoutCycles, 2048)
// would drain the wedged head itself, while still sitting far above any
// healthy head-of-line wait at corpus load levels.
func RecoveredReplayConfig() recovery.Config {
	c := recovery.Default()
	c.StallThresholdCycles = 1024
	c.ConfirmCycles = 256
	return c
}

// RunRecovered replays the reproducer with runtime deadlock recovery
// armed (RecoveredReplayConfig, optionally with drain-before-
// reconfigure) on the given engine ("" keeps the recorded one) and
// returns the full verdict: a reproducer that deadlocks its fabric
// without recovery must come back clean with DeadlocksRecovered > 0
// when recovery is on. A non-nil arm replays against the target armed
// with the spraying router (seeded with the reproducer's seed), so the
// corpus doubles as a regression for dead-link re-spray plus
// escape-path recovery.
func (r *Repro) RunRecovered(engine string, drain bool, arm *Arm) (Verdict, error) {
	e, err := r.engine()
	if err != nil {
		return Verdict{}, err
	}
	if arm != nil {
		if e.T, err = ArmMultipath(e.T, arm.K, arm.Selector, e.Opt.Cfg.VCs, r.Seed); err != nil {
			return Verdict{}, err
		}
	}
	switch engine {
	case "":
	case "vct", "wormhole":
		e.Opt.Wormhole = engine == "wormhole"
	default:
		return Verdict{}, fmt.Errorf("chaos: unknown engine override %q (want vct or wormhole)", engine)
	}
	e.Opt.Recover = true
	e.Opt.Recovery = RecoveredReplayConfig()
	e.Opt.Recovery.DrainOnFault = drain
	return e.RunScenario(Scenario{Kind: -1, Seed: r.Seed, Plan: netsim.NewFaultPlan(r.Events...)})
}

// Verify replays the reproducer and errors unless it trips the monitor
// it was minimized for. This is what the regression corpus runs under
// `go test`.
func (r *Repro) Verify() error {
	mon, detail, err := r.Run()
	if err != nil {
		return err
	}
	if mon != r.Monitor {
		if mon == "" {
			return fmt.Errorf("chaos: repro for %s on %s/%s ran clean", r.Monitor, r.Target, r.Engine)
		}
		return fmt.Errorf("chaos: repro for %s on %s/%s tripped %s instead: %s", r.Monitor, r.Target, r.Engine, mon, detail)
	}
	return nil
}
