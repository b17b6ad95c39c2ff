package analysis

import (
	"context"
	"fmt"
	"io"

	"dsnet/internal/chaos"
	"dsnet/internal/harness"
	"dsnet/internal/netsim"
)

// RecoveryRow summarizes one (fault fraction, recovery mode) point of
// the recovery-cost sweep: what armed deadlock recovery costs — and
// buys — on one chaos target, contrasting unarmed runs against live
// table swaps ("recover") and drain-before-reconfigure epochs
// ("recover+drain").
type RecoveryRow struct {
	Target       string
	Engine       string
	Mode         string // off | recover | recover+drain
	FailFraction float64
	FailedLinks  int
	Monitor      string // violated monitor ("" when the run came back clean)
	Delivered    int64
	AvgLatencyNS float64
	P99LatencyNS float64
	Detected     int64
	Recovered    int64
	Released     int64
	Lost         int64
	AbortedFlits int64
	DrainEpochs  int64
	DrainPaused  int64
}

// RecoveryModes are the sweep's recovery modes, in table order.
var RecoveryModes = []string{"off", "recover", "recover+drain"}

// RecoverySweep measures the recovery-cost trade-off on one chaos
// target (chaos.BuildTarget name): for each link-failure fraction it
// runs the same seeded scenario unarmed, with live-swap recovery, and
// with drain-before-reconfigure recovery. Every cell is a pure function
// of (target, n, seed, fraction, mode, engine).
//
// The armed modes use the aggressive corpus-replay detector tuning, so
// confirmed aborts land well inside the watchdog and HOL-wait horizons
// even on a wedged fabric. That tuning deliberately trades away
// zero-fault inertness: on a congested-but-healthy run it aborts a few
// long-waiting packets (visible as Detected/AbortedFlits at fraction
// 0), and that false-positive overhead is part of the cost the table
// reports. The conservative recovery.Default() tuning is the one with
// the bit-identity guarantee.
func RecoverySweep(ctx context.Context, r *harness.Runner, target string, n int, seed uint64, fracs []float64, wormhole bool) ([]RecoveryRow, error) {
	for _, frac := range fracs {
		if frac < 0 || frac >= 1 {
			return nil, fmt.Errorf("analysis: fail fraction %g outside [0,1)", frac)
		}
	}
	buildEngine := func(mode string) (*chaos.Engine, error) {
		s := chaos.Setup{Target: target, N: n, Wormhole: wormhole}
		if mode != "off" {
			rc := chaos.RecoveredReplayConfig()
			rc.DrainOnFault = mode == "recover+drain"
			s.Recovery = &rc
		}
		return s.Engine()
	}
	probe, err := buildEngine("off")
	if err != nil {
		return nil, err
	}
	g := probe.T.Graph

	type cellMeta struct {
		frac  float64
		mode  string
		links int
	}
	var metas []cellMeta
	var cells []harness.Cell[chaos.Verdict]
	for _, frac := range fracs {
		plan := netsim.NewFaultPlan()
		if frac > 0 {
			plan, err = netsim.RandomLinkFaults(g, frac,
				probe.Opt.Cfg.WarmupCycles, probe.Opt.Cfg.MeasureCycles/2, seed)
			if err != nil {
				return nil, err
			}
		}
		for _, mode := range RecoveryModes {
			e, err := buildEngine(mode)
			if err != nil {
				return nil, err
			}
			metas = append(metas, cellMeta{frac: frac, mode: mode, links: plan.FailureCount()})
			key := harness.NewKey("recovery-cost")
			key.Topo, key.Switching = target, e.Opt.EngineName()
			key.N, key.Rate, key.Seed = g.N(), e.Opt.Rate, seed
			key.Params = []harness.Param{
				harness.P("mode", mode),
				harness.Pf("frac", frac),
				harness.P("plan", harness.FaultPlanFingerprint(plan)),
				harness.P("opt", harness.Fingerprint(fmt.Sprintf("%+v", e.Opt))),
			}
			sc := chaos.Scenario{Kind: -1, Seed: seed, Plan: plan}
			cells = append(cells, harness.Cell[chaos.Verdict]{Key: key, Run: func() (chaos.Verdict, error) {
				ce, err := buildEngine(mode)
				if err != nil {
					return chaos.Verdict{}, err
				}
				return ce.RunScenario(sc)
			}})
		}
	}
	verdicts, err := harness.RunCtx(ctx, r, "recovery-cost", cells)
	if err != nil {
		return nil, err
	}

	rows := make([]RecoveryRow, 0, len(verdicts))
	for i, v := range verdicts {
		res := v.Result
		rows = append(rows, RecoveryRow{
			Target:       target,
			Engine:       v.Engine,
			Mode:         metas[i].mode,
			FailFraction: metas[i].frac,
			FailedLinks:  metas[i].links,
			Monitor:      v.Monitor,
			Delivered:    res.DeliveredTotal,
			AvgLatencyNS: res.AvgLatencyNS,
			P99LatencyNS: res.P99LatencyNS,
			Detected:     res.DeadlocksDetected,
			Recovered:    res.DeadlocksRecovered,
			Released:     res.DeadlocksReleased,
			Lost:         res.DeadlocksLost,
			AbortedFlits: res.AbortedFlits,
			DrainEpochs:  res.DrainEpochs,
			DrainPaused:  res.DrainPausedCycles,
		})
	}
	return rows, nil
}

// WriteRecoveryTable renders the recovery-cost sweep.
func WriteRecoveryTable(w io.Writer, rows []RecoveryRow) {
	fmt.Fprintf(w, "%-14s %-9s %-14s %6s %6s %-10s %10s %10s %10s %6s %6s %5s %5s %8s %7s %9s\n",
		"target", "engine", "mode", "frac", "links", "monitor",
		"delivered", "avg_ns", "p99_ns", "det", "rec", "rel", "lost", "ab_flits", "epochs", "paused_cy")
	for _, r := range rows {
		mon := r.Monitor
		if mon == "" {
			mon = "-"
		}
		fmt.Fprintf(w, "%-14s %-9s %-14s %6.3f %6d %-10s %10d %10.1f %10.1f %6d %6d %5d %5d %8d %7d %9d\n",
			r.Target, r.Engine, r.Mode, r.FailFraction, r.FailedLinks, mon,
			r.Delivered, r.AvgLatencyNS, r.P99LatencyNS,
			r.Detected, r.Recovered, r.Released, r.Lost, r.AbortedFlits,
			r.DrainEpochs, r.DrainPaused)
	}
}
