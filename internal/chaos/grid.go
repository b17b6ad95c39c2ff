package chaos

import (
	"context"
	"fmt"

	"dsnet/internal/harness"
	"dsnet/internal/recovery"
)

// Setup names a chaos target and how its runs are driven. Engine turns
// it into an engine the same way for every caller — the sweeps, the
// dsnchaos command and each harness cell that rebuilds its engine — so
// a cell is a pure function of its setup plus its scenario.
type Setup struct {
	Target   string // BuildTarget name
	N        int    // switches
	Wormhole bool   // drive the wormhole engine instead of VCT
	// Rate, when positive, is the offered load. Otherwise the target's
	// SafeRate applies, or DefaultOptions' rate if it pins none.
	Rate float64
	// Recovery, when non-nil, arms runtime deadlock recovery with this
	// tuning.
	Recovery *recovery.Config
	// Multipath, when non-nil, swaps the target's router for the
	// spraying router (ArmMultipath) seeded with Seed.
	Multipath *Arm
	// Seed is the campaign seed: NewGrid draws the scenarios from it.
	Seed uint64
	// Window, when non-zero, replaces the options' fault window for the
	// scenarios NewGrid draws.
	Window Window
}

// Engine builds the target and the engine the setup describes.
// Fault-aware routers mutate their tables during a run, so every run
// that can happen in parallel needs its own engine.
func (s Setup) Engine() (*Engine, error) {
	t, err := BuildTarget(s.Target, s.N)
	if err != nil {
		return nil, err
	}
	opt := DefaultOptions()
	if s.Multipath != nil {
		if t, err = ArmMultipath(t, s.Multipath.K, s.Multipath.Selector, opt.Cfg.VCs, s.Seed); err != nil {
			return nil, err
		}
	}
	opt.Wormhole = s.Wormhole
	switch {
	case s.Rate > 0:
		opt.Rate = s.Rate
	case t.SafeRate > 0:
		opt.Rate = t.SafeRate
	}
	if s.Recovery != nil {
		opt.Recover = true
		opt.Recovery = *s.Recovery
	}
	return New(t, opt)
}

// Grid is one seeded campaign per setup, ready to run: the engine each
// setup describes and the scenarios drawn for it.
type Grid struct {
	Setups    []Setup
	Engines   []*Engine
	Scenarios [][]Scenario
}

// NewGrid builds each setup's engine and draws count scenarios for it.
func NewGrid(setups []Setup, count int) (*Grid, error) {
	g := &Grid{Setups: setups}
	for _, s := range setups {
		e, err := s.Engine()
		if err != nil {
			return nil, err
		}
		w := s.Window
		if w == (Window{}) {
			w = e.Opt.FaultWindow()
		}
		scs, err := Campaign(e.T.Graph, e.T.Layout, w, s.Seed, count)
		if err != nil {
			return nil, err
		}
		g.Engines = append(g.Engines, e)
		g.Scenarios = append(g.Scenarios, scs)
	}
	return g, nil
}

// Run runs the grid on r (nil: harness.Default()) and returns each
// setup's verdicts, its golden baseline first. The zero-fault goldens
// run first, one cell per setup. Every scenario then runs as an
// independent cell on a fresh engine seeded with its setup's golden
// result, so the reconvergence check matches a serial campaign exactly.
// The grid's own engines are seeded with their goldens too, so
// ShrinkPlan can re-apply that check.
func (g *Grid) Run(ctx context.Context, r *harness.Runner) ([][]Verdict, error) {
	optFPs := make([]string, len(g.Engines))
	goldenCells := make([]harness.Cell[Verdict], len(g.Engines))
	for i, e := range g.Engines {
		optFPs[i] = harness.Fingerprint(fmt.Sprintf("%+v", e.Opt))
		key := harness.NewKey("chaos-golden")
		key.Topo, key.Switching = e.T.Name, e.Opt.EngineName()
		key.N, key.Rate, key.Seed = e.T.Graph.N(), e.Opt.Rate, e.Opt.Cfg.Seed
		key.Params = []harness.Param{harness.P("opt", optFPs[i])}
		s := g.Setups[i]
		goldenCells[i] = harness.Cell[Verdict]{Key: key, Run: func() (Verdict, error) {
			ge, err := s.Engine()
			if err != nil {
				return Verdict{}, err
			}
			return ge.GoldenVerdict()
		}}
	}
	goldens, err := harness.RunCtx(ctx, r, "chaos-golden", goldenCells)
	if err != nil {
		return nil, err
	}

	var cells []harness.Cell[Verdict]
	for i, e := range g.Engines {
		gv, s := goldens[i], g.Setups[i]
		e.SetGolden(gv.Result, gv.Monitor)
		for _, sc := range g.Scenarios[i] {
			key := harness.NewKey("chaos")
			key.Topo, key.Switching = e.T.Name, e.Opt.EngineName()
			key.N, key.Seed = s.N, sc.Seed
			key.Params = []harness.Param{
				harness.P("kind", sc.Kind.String()),
				harness.P("plan", harness.FaultPlanFingerprint(sc.Plan)),
				harness.P("opt", optFPs[i]),
				harness.Pd("golden", gv.Result.DeliveredTotal),
			}
			cells = append(cells, harness.Cell[Verdict]{Key: key, Run: func() (Verdict, error) {
				ge, err := s.Engine()
				if err != nil {
					return Verdict{}, err
				}
				ge.SetGolden(gv.Result, gv.Monitor)
				return ge.RunScenario(sc)
			}})
		}
	}
	results, err := harness.RunCtx(ctx, r, "chaos", cells)
	if err != nil {
		return nil, err
	}
	out := make([][]Verdict, len(g.Engines))
	next := 0
	for i := range out {
		n := len(g.Scenarios[i])
		out[i] = append([]Verdict{goldens[i]}, results[next:next+n]...)
		next += n
	}
	return out, nil
}
