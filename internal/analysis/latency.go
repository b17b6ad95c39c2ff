package analysis

import (
	"context"
	"fmt"
	"io"

	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/harness"
	"dsnet/internal/netsim"
	"dsnet/internal/stats"
	"dsnet/internal/topology"
	"dsnet/internal/traffic"
)

// LatencyCurve is one series of Figure 10: latency vs accepted traffic
// for one topology under one traffic pattern.
type LatencyCurve struct {
	Topology string
	Pattern  string
	Points   []netsim.Result
}

// PatternNames lists the traffic patterns PatternFor accepts: the
// paper's three Figure 10 patterns plus the HPC application workloads.
var PatternNames = []string{
	"uniform", "bit-reversal", "neighboring",
	"transpose", "shuffle", "hotspot", "stencil-2d", "all-to-all", "tornado",
}

// PatternFor builds a traffic pattern by name (see PatternNames) for a
// network of nSw switches with hostsPerSwitch hosts each. The
// neighboring pattern arranges switches — and the 2-D stencil arranges
// hosts — in a near-square 2-D array as the paper describes. The
// all-to-all pattern is stateful: build one per simulation.
func PatternFor(name string, nSw, hostsPerSwitch int) (traffic.Pattern, error) {
	hosts := nSw * hostsPerSwitch
	switch name {
	case "uniform":
		return traffic.Uniform{Hosts: hosts}, nil
	case "bit-reversal":
		return traffic.NewBitReversal(hosts)
	case "neighboring":
		rows, cols, err := topology.NearSquareDims(nSw)
		if err != nil {
			return nil, err
		}
		return traffic.NewNeighboring(rows, cols, hostsPerSwitch, 0.9)
	case "transpose":
		return traffic.NewTranspose(hosts)
	case "shuffle":
		return traffic.NewShuffle(hosts)
	case "hotspot":
		return traffic.Hotspot{Hosts: hosts, Hot: 0, Fraction: 0.1}, nil
	case "stencil-2d":
		rows, cols, err := topology.NearSquareDims(hosts)
		if err != nil {
			return nil, err
		}
		return traffic.NewStencil2D(rows, cols, true)
	case "all-to-all", "alltoall":
		return traffic.NewAllToAll(hosts)
	case "tornado":
		return traffic.NewTornado(nSw, hostsPerSwitch)
	default:
		return nil, fmt.Errorf("analysis: unknown traffic pattern %q (patterns: %v)", name, PatternNames)
	}
}

// latencyCells decomposes one latency curve into one cell per offered
// load. Every cell builds its own router, pattern and simulator, so
// cells are fully independent; router construction is deterministic,
// making the per-cell rebuild invisible in the results.
func latencyCells(cfg netsim.Config, g *graph.Graph, name, patternName string, rates []float64) []harness.Cell[netsim.Result] {
	graphFP := harness.GraphFingerprint(g)
	cfgFP := harness.SimConfigFingerprint(cfg)
	cells := make([]harness.Cell[netsim.Result], 0, len(rates))
	for _, rate := range rates {
		key := harness.NewKey("latency")
		key.Topo, key.Routing, key.Switching, key.Pattern = name, "adaptive", "vct", patternName
		key.N, key.Rate, key.Seed = g.N(), rate, cfg.Seed
		key.Params = []harness.Param{harness.P("graph", graphFP), harness.P("cfg", cfgFP)}
		cells = append(cells, harness.Cell[netsim.Result]{Key: key, Run: func() (netsim.Result, error) {
			rt, err := netsim.NewDuatoUpDown(g, cfg.VCs)
			if err != nil {
				return netsim.Result{}, err
			}
			// Built per run: some patterns (all-to-all) carry per-simulation
			// state. Construction draws no simulation RNG, so stateless
			// patterns are unaffected.
			pat, err := PatternFor(patternName, g.N(), cfg.HostsPerSwitch)
			if err != nil {
				return netsim.Result{}, err
			}
			sim, err := netsim.NewSim(cfg, g, rt, pat, rate)
			if err != nil {
				return netsim.Result{}, err
			}
			// A watchdog trip marks the point saturated; keep the curve.
			res, _ := sim.Run()
			return res, nil
		}})
	}
	return cells
}

// LatencySweep runs the simulator across the given offered loads
// (flits/cycle/host) for one topology graph using the paper's adaptive
// routing with up*/down* escape: one cell per offered load, assembled
// in rate order.
func LatencySweep(ctx context.Context, r *harness.Runner, cfg netsim.Config, g *graph.Graph, name, patternName string, rates []float64) (LatencyCurve, error) {
	points, err := harness.RunCtx(ctx, r, "latency", latencyCells(cfg, g, name, patternName, rates))
	if err != nil {
		return LatencyCurve{}, err
	}
	return LatencyCurve{Topology: name, Pattern: patternName, Points: points}, nil
}

// Fig10Curves reproduces one subfigure of Figure 10: the three comparison
// topologies at 64 switches under the named pattern, swept across offered
// loads. Rates are flits/cycle/host; the paper's x axis (accepted
// Gbit/s/host) is rate * 96 at the unsaturated points. The subfigure
// runs as one flat cell grid (topologies x rates), so the pool stays
// busy across topology boundaries instead of draining at each curve.
func Fig10Curves(ctx context.Context, r *harness.Runner, cfg netsim.Config, patternName string, rates []float64, seed uint64) ([]LatencyCurve, error) {
	graphs, err := BuildComparison(64, seed)
	if err != nil {
		return nil, err
	}
	var cells []harness.Cell[netsim.Result]
	for _, name := range Names {
		cells = append(cells, latencyCells(cfg, graphs[name], name, patternName, rates)...)
	}
	points, err := harness.RunCtx(ctx, r, "fig10-"+patternName, cells)
	if err != nil {
		return nil, err
	}
	curves := make([]LatencyCurve, 0, len(Names))
	for i, name := range Names {
		curves = append(curves, LatencyCurve{
			Topology: name,
			Pattern:  patternName,
			Points:   points[i*len(rates) : (i+1)*len(rates)],
		})
	}
	return curves, nil
}

// Fig10CurvesWith is Fig10Curves without a context, kept for the
// perfbench module, whose parity tests call it.
func Fig10CurvesWith(r *harness.Runner, cfg netsim.Config, patternName string, rates []float64, seed uint64) ([]LatencyCurve, error) {
	return Fig10Curves(context.TODO(), r, cfg, patternName, rates, seed)
}

// WriteLatencyTable renders latency curves as plain-text series in the
// shape of Figure 10: one block per topology with accepted traffic and
// latency columns.
func WriteLatencyTable(w io.Writer, curves []LatencyCurve) {
	for _, c := range curves {
		fmt.Fprintf(w, "# %s / %s\n", c.Topology, c.Pattern)
		fmt.Fprintf(w, "%12s %12s %12s %10s\n", "offered", "accepted", "latency_ns", "saturated")
		for _, p := range c.Points {
			fmt.Fprintf(w, "%12.3f %12.3f %12.1f %10v\n", p.OfferedGbps, p.AcceptedGbps, p.AvgLatencyNS, p.Saturated)
		}
		fmt.Fprintln(w)
	}
}

// BalanceResult summarizes traffic balance across inter-switch channels
// for one routing scheme on one topology.
type BalanceResult struct {
	Scheme string
	CoV    float64 // coefficient of variation of channel loads
	Gini   float64
	MaxAvg float64 // max channel load / mean channel load
	Result netsim.Result
}

// BalanceComparison runs the Section VII "initial work" experiment: the
// DSN custom (source) routing versus deterministic up*/down* on the same
// DSN-V wiring, at the same offered load, comparing how evenly traffic
// spreads across channels. The paper reports that custom routing makes
// traffic significantly more balanced.
func BalanceComparison(cfg netsim.Config, n int, rate float64) ([]BalanceResult, error) {
	d, err := dsnVFor(n)
	if err != nil {
		return nil, err
	}
	custom, err := netsim.NewDSNSourceRouted(d)
	if err != nil {
		return nil, err
	}
	updown, err := netsim.NewUpDownOnly(d.Graph(), cfg.VCs)
	if err != nil {
		return nil, err
	}
	pat := traffic.Uniform{Hosts: d.N * cfg.HostsPerSwitch}
	var out []BalanceResult
	for _, sch := range []struct {
		name string
		rt   netsim.Router
	}{{"custom-dsn", custom}, {"updown", updown}} {
		sim, err := netsim.NewSim(cfg, d.Graph(), sch.rt, pat, rate)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run()
		if err != nil {
			return nil, fmt.Errorf("analysis: balance run %s: %w", sch.name, err)
		}
		loads := stats.Int64s(res.ChannelFlits)
		s := stats.Summarize(loads)
		br := BalanceResult{
			Scheme: sch.name,
			CoV:    stats.CoV(loads),
			Gini:   stats.Gini(loads),
			Result: res,
		}
		if s.Mean > 0 {
			br.MaxAvg = s.Max / s.Mean
		}
		out = append(out, br)
	}
	return out, nil
}

// dsnVFor picks a DSN-V size at or below n that satisfies the variant's
// n % p == 0 requirement.
func dsnVFor(n int) (*core.DSN, error) {
	for m := n; m >= 8; m-- {
		if m%core.CeilLog2(m) == 0 {
			return core.NewV(m)
		}
	}
	return nil, fmt.Errorf("analysis: no valid DSN-V size at or below %d", n)
}
