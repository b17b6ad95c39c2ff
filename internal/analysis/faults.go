package analysis

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"

	"dsnet/internal/graph"
	"dsnet/internal/harness"
	"dsnet/internal/netsim"
	"dsnet/internal/traffic"
)

// FaultRow summarizes the resilience of one topology to random link
// failures: how often the network stays connected and how much the
// diameter and average shortest path inflate among the surviving trials.
// Simple fault management is one of the paper's stated motivations for
// low-degree topologies; this experiment quantifies how DSN's shortcut
// redundancy compares with the torus and the random baseline.
type FaultRow struct {
	Name               string
	FailFraction       float64
	Trials             int
	ConnectedRate      float64 // fraction of trials that stayed connected
	DisconnectedTrials int     // trials that split the network
	DiameterInfl       float64 // mean diameter / fault-free diameter
	ASPLInfl           float64 // mean ASPL / fault-free ASPL
}

// faultTrialCell is the memoized result of one damaged-graph
// measurement: the surviving topology's raw path metrics.
type faultTrialCell struct {
	Connected bool
	Diameter  int32
	ASPL      float64
}

// FaultSweep removes a random fraction of links from each comparison
// topology over several trials and measures the degradation. The
// fault-free baselines and every (fraction, topology, trial) damage
// measurement are independent cells; rows aggregate the trial cells in
// exactly the serial order, so the inflation sums are bit-identical.
func FaultSweep(ctx context.Context, r *harness.Runner, n int, fracs []float64, trials int, seed uint64) ([]FaultRow, error) {
	if trials < 1 {
		return nil, fmt.Errorf("analysis: fault sweep needs >= 1 trial, got %d", trials)
	}
	for _, frac := range fracs {
		if frac < 0 || frac >= 1 {
			return nil, fmt.Errorf("analysis: fail fraction %g outside [0,1)", frac)
		}
	}

	baseCells := make([]harness.Cell[faultTrialCell], 0, len(Names))
	for _, name := range Names {
		key := harness.NewKey("fault-base")
		key.Topo, key.N, key.Seed = name, n, seed
		baseCells = append(baseCells, harness.Cell[faultTrialCell]{Key: key, Run: func() (faultTrialCell, error) {
			g, err := BuildTopology(name, n, seed)
			if err != nil {
				return faultTrialCell{}, err
			}
			m := g.AllPairs()
			return faultTrialCell{Connected: m.Connected, Diameter: m.Diameter, ASPL: m.ASPL}, nil
		}})
	}
	baseResults, err := harness.RunCtx(ctx, r, "fault-base", baseCells)
	if err != nil {
		return nil, err
	}
	base := make(map[string]faultTrialCell, len(Names))
	for i, name := range Names {
		base[name] = baseResults[i]
	}

	var cells []harness.Cell[faultTrialCell]
	for _, frac := range fracs {
		for _, name := range Names {
			for trial := 0; trial < trials; trial++ {
				key := harness.NewKey("fault")
				key.Topo, key.N, key.Seed = name, n, seed
				key.Params = []harness.Param{harness.Pf("frac", frac), harness.Pd("trial", int64(trial))}
				cells = append(cells, harness.Cell[faultTrialCell]{Key: key, Run: func() (faultTrialCell, error) {
					g, err := BuildTopology(name, n, seed)
					if err != nil {
						return faultTrialCell{}, err
					}
					rng := rand.New(rand.NewPCG(seed+uint64(trial)*7919, uint64(frac*1e6)))
					kill := pickFailures(g.M(), frac, rng)
					sub := g.Subgraph(func(e int) bool { return !kill[e] })
					m := sub.AllPairs()
					return faultTrialCell{Connected: m.Connected, Diameter: m.Diameter, ASPL: m.ASPL}, nil
				}})
			}
		}
	}
	results, err := harness.RunCtx(ctx, r, "fault", cells)
	if err != nil {
		return nil, err
	}

	var rows []FaultRow
	i := 0
	for _, frac := range fracs {
		for _, name := range Names {
			row := FaultRow{Name: name, FailFraction: frac, Trials: trials}
			var diamSum, asplSum float64
			connected := 0
			for trial := 0; trial < trials; trial++ {
				m := results[i]
				i++
				if !m.Connected {
					continue
				}
				connected++
				diamSum += float64(m.Diameter) / float64(base[name].Diameter)
				asplSum += m.ASPL / base[name].ASPL
			}
			row.ConnectedRate = float64(connected) / float64(trials)
			row.DisconnectedTrials = trials - connected
			if connected > 0 {
				row.DiameterInfl = diamSum / float64(connected)
				row.ASPLInfl = asplSum / float64(connected)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// pickFailures selects floor(m*frac) distinct edges to fail as a death
// mask, via a partial Fisher-Yates shuffle (O(m), no rejection loop even
// at high fractions).
func pickFailures(m int, frac float64, rng *rand.Rand) []bool {
	kill := make([]bool, m)
	for _, e := range graph.SampleIndices(m, int(float64(m)*frac), rng) {
		kill[e] = true
	}
	return kill
}

// WriteFaultTable renders the fault sweep.
func WriteFaultTable(w io.Writer, rows []FaultRow) {
	fmt.Fprintf(w, "%-8s %10s %10s %12s %12s %10s\n", "topo", "fail_frac", "connected", "disc_trials", "diam_infl", "aspl_infl")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %10.2f %10.2f %12d %12.2f %10.2f\n",
			r.Name, r.FailFraction, r.ConnectedRate, r.DisconnectedTrials, r.DiameterInfl, r.ASPLInfl)
	}
}

// DegradationRow is one point of the live-fault simulation experiment:
// one topology at one failed-link fraction, with links dying *during*
// the run (graph-level FaultSweep, by contrast, studies static damage).
type DegradationRow struct {
	Name         string
	FailFraction float64
	FailedLinks  int
	OfferedGbps  float64
	AcceptedGbps float64
	// DeliveredRate is delivered/generated over the measurement window; the
	// shortfall is packets lost to faults or still retrying at run end.
	DeliveredRate  float64
	AvgLatencyNS   float64
	P99LatencyNS   float64
	PostFaultP99NS float64
	Dropped        int64
	Lost           int64
	Retried        int64
	Rerouted       int64
	// Watchdog marks a run the progress watchdog aborted (a genuine
	// fault-handling failure, since the transport layer should drain).
	Watchdog bool
}

// DegradationSweep measures graceful degradation under live faults: for
// each comparison topology and failed-link fraction it runs the VCT
// simulator with the fault-aware adaptive router while RandomLinkFaults
// kills links across the first half of the measurement window. Fraction
// 0 rows are the fault-free baseline. Each (topology, fraction)
// live-fault simulation is one cell.
func DegradationSweep(ctx context.Context, r *harness.Runner, cfg netsim.Config, n int, fracs []float64, rate float64, seed uint64) ([]DegradationRow, error) {
	cfgFP := harness.SimConfigFingerprint(cfg)
	var cells []harness.Cell[DegradationRow]
	for _, name := range Names {
		for _, frac := range fracs {
			key := harness.NewKey("degradation")
			key.Topo, key.Routing, key.Switching, key.Pattern = name, "adaptive", "vct", "uniform"
			key.N, key.Rate, key.Seed = n, rate, seed
			key.Params = []harness.Param{harness.Pf("frac", frac), harness.P("cfg", cfgFP)}
			cells = append(cells, harness.Cell[DegradationRow]{Key: key, Run: func() (DegradationRow, error) {
				g, err := BuildTopology(name, n, seed)
				if err != nil {
					return DegradationRow{}, err
				}
				rt, err := netsim.NewDuatoUpDown(g, cfg.VCs)
				if err != nil {
					return DegradationRow{}, err
				}
				pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
				sim, err := netsim.NewSim(cfg, g, rt, pat, rate)
				if err != nil {
					return DegradationRow{}, err
				}
				plan, err := netsim.RandomLinkFaults(g, frac, cfg.WarmupCycles, cfg.MeasureCycles/2, seed)
				if err != nil {
					return DegradationRow{}, err
				}
				if err := sim.SetFaultPlan(plan); err != nil {
					return DegradationRow{}, err
				}
				res, runErr := sim.Run()
				row := DegradationRow{
					Name:           name,
					FailFraction:   frac,
					FailedLinks:    plan.FailureCount(),
					OfferedGbps:    res.OfferedGbps,
					AcceptedGbps:   res.AcceptedGbps,
					AvgLatencyNS:   res.AvgLatencyNS,
					P99LatencyNS:   res.P99LatencyNS,
					PostFaultP99NS: res.PostFaultP99NS,
					Dropped:        res.Dropped,
					Lost:           res.Lost,
					Retried:        res.Retried,
					Rerouted:       res.Rerouted,
					Watchdog:       runErr != nil,
				}
				if res.GeneratedMeasured > 0 {
					row.DeliveredRate = float64(res.DeliveredMeasured) / float64(res.GeneratedMeasured)
				}
				return row, nil
			}})
		}
	}
	return harness.RunCtx(ctx, r, "degradation", cells)
}

// WriteDegradationTable renders the live-fault degradation sweep.
func WriteDegradationTable(w io.Writer, rows []DegradationRow) {
	fmt.Fprintf(w, "%-8s %10s %6s %10s %10s %9s %12s %12s %8s %6s %8s %9s %5s\n",
		"topo", "fail_frac", "links", "offered", "accepted", "del_rate", "p99_ns", "pf_p99_ns", "dropped", "lost", "retried", "rerouted", "wdog")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %10.2f %6d %10.2f %10.2f %9.3f %12.1f %12.1f %8d %6d %8d %9d %5v\n",
			r.Name, r.FailFraction, r.FailedLinks, r.OfferedGbps, r.AcceptedGbps, r.DeliveredRate,
			r.P99LatencyNS, r.PostFaultP99NS, r.Dropped, r.Lost, r.Retried, r.Rerouted, r.Watchdog)
	}
}
