package analysis

import (
	"context"
	"fmt"
	"io"
	"strings"

	"dsnet/internal/catalog"
	"dsnet/internal/collectives"
	"dsnet/internal/harness"
	"dsnet/internal/multipath"
	"dsnet/internal/netsim"
)

// MultipathSchemes lists the routing schemes MultipathSweep compares, in
// presentation order: the repository's standard hop-adaptive router
// ("single" — one path per packet), then source-routed multipath
// spraying at k ∈ {2, 4, 8} with the static per-flow selector, and the
// packet-level round-robin and load-aware adaptive selectors at k = 4.
// The DSN series additionally runs "dsn-custom", the paper's single-path
// custom source routing, as the headline comparator.
var MultipathSchemes = []string{
	"single", "mp-k2-static", "mp-k4-static", "mp-k8-static", "mp-k4-rr", "mp-k4-adaptive",
}

// MultipathWorkloads lists the workloads MultipathSweep drives each
// scheme through: steady-state hotspot traffic, uniform traffic with
// links dying mid-run, and a closed-loop ring all-reduce replay.
var MultipathWorkloads = []string{"hotspot", "fault", "collective"}

// MultipathRow is one (topology, scheme, workload) simulation point.
// Open-loop workloads fill the latency/throughput columns; the
// collective replay fills MakespanUS instead. OutOfOrder and PathSpread
// come from the engines' per-flow accounting and quantify the reordering
// cost multipath spraying pays for its throughput.
type MultipathRow struct {
	Name     string // topology
	Scheme   string // see MultipathSchemes
	Workload string // see MultipathWorkloads
	N        int    // switches (DSN rows ride DSN-V at the nearest valid size)
	K        int    // paths per pair (1 for single-path schemes)

	OfferedGbps    float64
	AcceptedGbps   float64
	DeliveredRate  float64
	AvgLatencyNS   float64
	P99LatencyNS   float64
	PostFaultP99NS float64 // fault workload only
	MakespanUS     float64 // collective workload only
	OutOfOrder     int64
	PathSpread     float64
	Lost           int64
	Retried        int64
	Rerouted       int64
	Watchdog       bool
}

// mpScheme decodes a scheme name into its multipath parameters.
// ok=false marks the single-path baselines.
func mpScheme(scheme string) (k int, sel multipath.Selector, ok bool) {
	rest, found := strings.CutPrefix(scheme, "mp-k")
	if !found {
		return 1, 0, false
	}
	var kv int
	var selName string
	if _, err := fmt.Sscanf(rest, "%d-%s", &kv, &selName); err != nil {
		return 1, 0, false
	}
	s, err := multipath.ParseSelector(selName)
	if err != nil {
		return 1, 0, false
	}
	return kv, s, true
}

// mpRouter builds the router a scheme names on f: its catalog router
// is the adaptive one for "single", the custom one for "dsn-custom" and
// the multipath one for "mp-k<k>-<selector>". Table construction is a
// deterministic pure function of (g, k), so rebuilding it inside each
// cell keeps cells independent without changing results.
func mpRouter(scheme string, f catalog.Fabric, cfg netsim.Config, seed uint64) (netsim.Router, error) {
	name := "adaptive"
	if k, sel, ok := mpScheme(scheme); ok {
		name = catalog.MultipathName(sel, k)
	} else if scheme == "dsn-custom" {
		name = "custom"
	}
	mk, err := catalog.Router(name, f, cfg.VCs, seed)
	if err != nil {
		return nil, err
	}
	return mk()
}

// MultipathSweep compares single-path routing against multipath spraying
// (see MultipathSchemes) on the three comparison topologies under the
// hotspot, live-fault and collective workloads. rate is the offered load
// for the open-loop workloads (flits/cycle/host); frac is the fault
// workload's failed-link fraction. Each (topology, scheme, workload)
// simulation is one cell, assembled in exactly the serial order.
func MultipathSweep(ctx context.Context, r *harness.Runner, cfg netsim.Config, n int, rate, frac float64, seed uint64) ([]MultipathRow, error) {
	if frac < 0 || frac >= 1 {
		return nil, fmt.Errorf("analysis: fail fraction %g outside [0,1)", frac)
	}
	cfgFP := harness.SimConfigFingerprint(cfg)
	var cells []harness.Cell[MultipathRow]
	for _, name := range Names {
		name := name
		// The DSN series rides the deadlock-free DSN-V wiring (nearest
		// valid size at or below n) so that the paper's custom source
		// routing and the multipath schemes compare on identical fabric.
		build := func() (catalog.Fabric, error) {
			if name == "DSN" {
				d, err := dsnVFor(n)
				if err != nil {
					return catalog.Fabric{}, err
				}
				return catalog.Fabric{Graph: d.Graph(), DSN: d}, nil
			}
			g, err := BuildTopology(name, n, seed)
			return catalog.Fabric{Graph: g}, err
		}
		f0, err := build()
		if err != nil {
			return nil, err
		}
		graphFP := harness.GraphFingerprint(f0.Graph)
		schemes := MultipathSchemes
		if name == "DSN" {
			schemes = append([]string{"dsn-custom"}, schemes...)
		}
		for _, scheme := range schemes {
			scheme := scheme
			k, sel, isMP := mpScheme(scheme)
			for _, workload := range MultipathWorkloads {
				workload := workload
				key := harness.NewKey("multipath")
				key.Topo, key.Routing, key.Switching, key.Pattern = name, scheme, "vct", workload
				key.N, key.Rate, key.Seed = f0.Graph.N(), rate, seed
				key.Params = []harness.Param{
					harness.P("graph", graphFP),
					harness.P("cfg", cfgFP),
					harness.Pd("k", int64(k)),
					harness.Pf("frac", frac),
				}
				if isMP {
					key.Params = append(key.Params, harness.P("selector", sel.String()))
				}
				cells = append(cells, harness.Cell[MultipathRow]{Key: key, Run: func() (MultipathRow, error) {
					f, err := build()
					if err != nil {
						return MultipathRow{}, err
					}
					rt, err := mpRouter(scheme, f, cfg, seed)
					if err != nil {
						return MultipathRow{}, err
					}
					g := f.Graph
					row := MultipathRow{Name: name, Scheme: scheme, Workload: workload, N: g.N(), K: k}
					switch workload {
					case "collective":
						hosts := g.N() * cfg.HostsPerSwitch
						dag, err := collectives.Generate("allreduce", "ring", hosts, cfg.PacketFlits)
						if err != nil {
							return MultipathRow{}, err
						}
						sim, err := netsim.NewSimReplay(cfg, g, rt, collectives.ToReplay(dag))
						if err != nil {
							return MultipathRow{}, err
						}
						res, runErr := sim.Run()
						fillMultipathRow(&row, res, runErr != nil)
						if runErr == nil && res.ReplayCompleted {
							row.MakespanUS = res.MakespanNS / 1e3
							row.DeliveredRate = 1
						}
						return row, nil
					case "hotspot", "fault":
						pat, err := PatternFor("uniform", g.N(), cfg.HostsPerSwitch)
						if workload == "hotspot" {
							pat, err = PatternFor("hotspot", g.N(), cfg.HostsPerSwitch)
						}
						if err != nil {
							return MultipathRow{}, err
						}
						sim, err := netsim.NewSim(cfg, g, rt, pat, rate)
						if err != nil {
							return MultipathRow{}, err
						}
						if workload == "fault" {
							plan, err := netsim.RandomLinkFaults(g, frac, cfg.WarmupCycles, cfg.MeasureCycles/2, seed)
							if err != nil {
								return MultipathRow{}, err
							}
							if err := sim.SetFaultPlan(plan); err != nil {
								return MultipathRow{}, err
							}
						}
						res, runErr := sim.Run()
						fillMultipathRow(&row, res, runErr != nil)
						if res.GeneratedMeasured > 0 {
							row.DeliveredRate = float64(res.DeliveredMeasured) / float64(res.GeneratedMeasured)
						}
						return row, nil
					}
					return MultipathRow{}, fmt.Errorf("analysis: unknown multipath workload %q", workload)
				}})
			}
		}
	}
	return harness.RunCtx(ctx, r, "multipath", cells)
}

// fillMultipathRow copies the engine metrics shared by every workload.
func fillMultipathRow(row *MultipathRow, res netsim.Result, watchdog bool) {
	row.OfferedGbps = res.OfferedGbps
	row.AcceptedGbps = res.AcceptedGbps
	row.AvgLatencyNS = res.AvgLatencyNS
	row.P99LatencyNS = res.P99LatencyNS
	row.PostFaultP99NS = res.PostFaultP99NS
	row.OutOfOrder = res.OutOfOrder
	row.PathSpread = res.PathSpread
	row.Lost = res.Lost
	row.Retried = res.Retried
	row.Rerouted = res.Rerouted
	row.Watchdog = watchdog
}

// WriteMultipathTable renders the multipath sweep grouped by workload.
// Rows arrive scheme-major from the sweep, so each workload's rows are
// gathered first; within a workload the sweep order is preserved.
func WriteMultipathTable(w io.Writer, rows []MultipathRow) {
	for wi, workload := range MultipathWorkloads {
		header := false
		for _, r := range rows {
			if r.Workload != workload {
				continue
			}
			if !header {
				header = true
				if wi > 0 {
					fmt.Fprintln(w)
				}
				fmt.Fprintf(w, "# workload: %s\n", workload)
				fmt.Fprintf(w, "%-8s %-14s %4s %2s %9s %9s %8s %11s %11s %11s %7s %7s %6s %8s %5s\n",
					"topo", "scheme", "n", "k", "offered", "accepted", "del_rate",
					"avg_ns", "p99_ns", "mkspan_us", "ooo", "spread", "lost", "retried", "wdog")
			}
			fmt.Fprintf(w, "%-8s %-14s %4d %2d %9.2f %9.2f %8.3f %11.1f %11.1f %11.1f %7d %7.2f %6d %8d %5v\n",
				r.Name, r.Scheme, r.N, r.K, r.OfferedGbps, r.AcceptedGbps, r.DeliveredRate,
				r.AvgLatencyNS, r.P99LatencyNS, r.MakespanUS, r.OutOfOrder, r.PathSpread,
				r.Lost, r.Retried, r.Watchdog)
		}
	}
}

// DiversityRow is one topology's path-diversity profile at one k. N and
// K ride in the embedded summary (duplicating them here would shadow the
// embedded fields in the JSON the result cache stores).
type DiversityRow struct {
	Name string
	multipath.Diversity
}

// DiversitySweep measures path diversity — realized edge-disjoint path
// counts against the Menger min-cut bound — for each comparison topology
// at each k. This is the static headroom analysis behind the multipath
// sweep: a pair's min cut bounds how many paths spraying can ever use.
func DiversitySweep(ctx context.Context, r *harness.Runner, n int, ks []int, seed uint64) ([]DiversityRow, error) {
	var cells []harness.Cell[DiversityRow]
	for _, name := range Names {
		name := name
		for _, k := range ks {
			k := k
			key := harness.NewKey("diversity")
			key.Topo, key.N, key.Seed = name, n, seed
			key.Params = []harness.Param{harness.Pd("k", int64(k))}
			cells = append(cells, harness.Cell[DiversityRow]{Key: key, Run: func() (DiversityRow, error) {
				g, err := BuildTopology(name, n, seed)
				if err != nil {
					return DiversityRow{}, err
				}
				d, err := multipath.DiversityFor(g, k, nil)
				if err != nil {
					return DiversityRow{}, err
				}
				return DiversityRow{Name: name, Diversity: d}, nil
			}})
		}
	}
	return harness.RunCtx(ctx, r, "diversity", cells)
}

// WriteDiversityTable renders the path-diversity sweep.
func WriteDiversityTable(w io.Writer, rows []DiversityRow) {
	fmt.Fprintf(w, "%-8s %6s %2s %10s %11s %12s %13s %8s\n",
		"topo", "n", "k", "mincut_min", "mincut_mean", "disjoint_min", "disjoint_mean", "pairs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %6d %2d %10d %11.2f %12d %13.2f %8d\n",
			r.Name, r.N, r.K, r.MinCutMin, r.MinCutMean, r.DisjointMin, r.DisjointMean, r.Pairs)
	}
}
