package analysis

import (
	"context"
	"fmt"
	"io"

	"dsnet/internal/collectives"
	"dsnet/internal/graph"
	"dsnet/internal/harness"
	"dsnet/internal/netsim"
	"dsnet/internal/stats"
)

// CollectiveRow summarizes closed-loop replays of one collective workload
// on one (topology, routing) pair: mean makespan across placement
// repetitions with a 95% confidence interval and a per-phase breakdown.
// This is the collectives counterpart of Figure 10 — instead of
// steady-state latency under open-loop load, it measures the
// dependency-ordered completion time HPC jobs actually wait for.
type CollectiveRow struct {
	Name       string // topology ("Torus", "RANDOM", "DSN", "DSN-custom")
	Routing    string // "adaptive" or "dsn-custom"
	N          int    // switches
	Hosts      int
	Collective string
	Algo       string
	Reps       int
	// MakespanUS and the CI half-width aggregate the completed reps; the
	// per-phase means are cumulative completion times in microseconds.
	MakespanUS    float64
	MakespanCI    float64
	PhaseUS       []float64
	PhaseNames    []string
	CompletedRate float64 // reps that delivered every message
	Watchdog      bool    // some rep was aborted by the progress watchdog
}

// collectiveRep is the memoized outcome of one placement repetition.
// Nanosecond-to-microsecond conversion happens inside the cell, exactly
// where the serial loop performed it, so downstream float accumulation
// is bit-identical.
type collectiveRep struct {
	Watchdog   bool
	Completed  bool
	MakespanUS float64
	PhaseEndUS []float64
}

// collectiveRepCells decomposes one (topology, routing, workload) series
// into one cell per placement repetition. mkRouter must be a
// deterministic constructor (both NewDuatoUpDown and NewDSNSourceRouted
// are), so rebuilding the router per cell leaves results unchanged.
func collectiveRepCells(cfg netsim.Config, g *graph.Graph, mkRouter func() (netsim.Router, error),
	d *collectives.DAG, name, routing string, chunkFlits, reps int, seed uint64) []harness.Cell[collectiveRep] {
	graphFP := harness.GraphFingerprint(g)
	cfgFP := harness.SimConfigFingerprint(cfg)
	cells := make([]harness.Cell[collectiveRep], 0, reps)
	for rep := 0; rep < reps; rep++ {
		key := harness.NewKey("collective")
		key.Topo, key.Routing, key.Switching, key.Pattern = name, routing, "vct", d.Collective
		key.N, key.Seed = g.N(), seed
		key.Params = []harness.Param{
			harness.P("algo", d.Algo),
			harness.Pd("hosts", int64(d.Hosts)),
			harness.Pd("chunk", int64(chunkFlits)),
			harness.Pd("rep", int64(rep)),
			harness.P("graph", graphFP),
			harness.P("cfg", cfgFP),
		}
		cells = append(cells, harness.Cell[collectiveRep]{Key: key, Run: func() (collectiveRep, error) {
			rt, err := mkRouter()
			if err != nil {
				return collectiveRep{}, err
			}
			replay := collectives.ToReplay(d.Permuted(seed + uint64(rep)*0x9e37))
			sim, err := netsim.NewSimReplay(cfg, g, rt, replay)
			if err != nil {
				return collectiveRep{}, err
			}
			res, runErr := sim.Run()
			if runErr != nil {
				return collectiveRep{Watchdog: true}, nil
			}
			if !res.ReplayCompleted {
				return collectiveRep{}, nil
			}
			out := collectiveRep{Completed: true, MakespanUS: res.MakespanNS / 1e3}
			out.PhaseEndUS = make([]float64, 0, len(res.PhaseEndNS))
			for _, p := range res.PhaseEndNS {
				out.PhaseEndUS = append(out.PhaseEndUS, p/1e3)
			}
			return out, nil
		}})
	}
	return cells
}

// assembleCollective aggregates one series' repetition cells into a row,
// accumulating in repetition order exactly as the serial loop did.
func assembleCollective(d *collectives.DAG, n, reps int, repResults []collectiveRep) CollectiveRow {
	row := CollectiveRow{
		N: n, Hosts: d.Hosts,
		Collective: d.Collective, Algo: d.Algo,
		Reps:       reps,
		PhaseNames: append([]string(nil), d.Phases...),
	}
	var makespans []float64
	phaseSums := make([]float64, len(d.Phases))
	completed := 0
	for _, rr := range repResults {
		if rr.Watchdog {
			row.Watchdog = true
			continue
		}
		if !rr.Completed {
			continue
		}
		completed++
		makespans = append(makespans, rr.MakespanUS)
		for i := 0; i < len(phaseSums) && i < len(rr.PhaseEndUS); i++ {
			phaseSums[i] += rr.PhaseEndUS[i]
		}
	}
	row.CompletedRate = float64(completed) / float64(reps)
	if completed > 0 {
		row.MakespanUS, row.MakespanCI = stats.MeanAndCI(makespans)
		row.PhaseUS = make([]float64, len(phaseSums))
		for i, s := range phaseSums {
			row.PhaseUS[i] = s / float64(completed)
		}
	}
	return row
}

// CollectiveSweep replays one collective workload on the three comparison
// topologies under the adaptive router, plus the DSN-V custom source
// routing, at each switch count in sizes. Repetitions permute the rank
// placement; the workload itself is identical across topologies of equal
// host count. Topology/size combinations the generator rejects (e.g.
// halving-doubling on the non-power-of-two DSN-V host count) are skipped.
// All sizes, topologies and repetitions form one flat cell grid so the
// worker pool stays busy across series boundaries; rows aggregate each
// series' contiguous cell range in repetition order.
func CollectiveSweep(ctx context.Context, r *harness.Runner, cfg netsim.Config, sizes []int, collective, algo string,
	chunkFlits, reps int, seed uint64) ([]CollectiveRow, error) {
	if reps < 1 {
		return nil, fmt.Errorf("analysis: collective sweep needs >= 1 rep, got %d", reps)
	}
	if chunkFlits < 1 {
		chunkFlits = cfg.PacketFlits
	}
	type series struct {
		name, routing string
		d             *collectives.DAG
		n             int // switches (DSN-custom may differ from the sweep size)
		lo            int // first cell index
	}
	var all []series
	var cells []harness.Cell[collectiveRep]
	for _, n := range sizes {
		graphs, err := BuildComparison(n, seed)
		if err != nil {
			return nil, err
		}
		d, err := collectives.Generate(collective, algo, n*cfg.HostsPerSwitch, chunkFlits)
		if err != nil {
			return nil, err
		}
		for _, name := range Names {
			g := graphs[name]
			all = append(all, series{name, "adaptive", d, g.N(), len(cells)})
			cells = append(cells, collectiveRepCells(cfg, g, func() (netsim.Router, error) {
				return netsim.NewDuatoUpDown(g, cfg.VCs)
			}, d, name, "adaptive", chunkFlits, reps, seed)...)
		}
		// DSN custom source routing needs the DSN-V wiring; its size (and
		// so host count) can differ from n when n % ceil(log2 n) != 0.
		dv, err := dsnVFor(n)
		if err != nil {
			return nil, err
		}
		dc, err := collectives.Generate(collective, algo, dv.N*cfg.HostsPerSwitch, chunkFlits)
		if err != nil {
			continue // workload undefined at this host count (e.g. not a power of two)
		}
		all = append(all, series{"DSN-custom", "dsn-custom", dc, dv.N, len(cells)})
		cells = append(cells, collectiveRepCells(cfg, dv.Graph(), func() (netsim.Router, error) {
			return netsim.NewDSNSourceRouted(dv)
		}, dc, "DSN-custom", "dsn-custom", chunkFlits, reps, seed)...)
	}
	results, err := harness.RunCtx(ctx, r, "collective", cells)
	if err != nil {
		return nil, err
	}
	rows := make([]CollectiveRow, 0, len(all))
	for _, s := range all {
		row := assembleCollective(s.d, s.n, reps, results[s.lo:s.lo+reps])
		row.Name, row.Routing = s.name, s.routing
		rows = append(rows, row)
	}
	return rows, nil
}

// CollectiveSweepWith is CollectiveSweep without a context, kept for
// the perfbench module, whose parity tests call it.
func CollectiveSweepWith(r *harness.Runner, cfg netsim.Config, sizes []int, collective, algo string,
	chunkFlits, reps int, seed uint64) ([]CollectiveRow, error) {
	return CollectiveSweep(context.TODO(), r, cfg, sizes, collective, algo, chunkFlits, reps, seed)
}

// WriteCollectiveTable renders a collective sweep as a plain-text table.
func WriteCollectiveTable(w io.Writer, rows []CollectiveRow) {
	fmt.Fprintf(w, "%-11s %-10s %6s %6s %-12s %-17s %4s %12s %10s %9s %5s  %s\n",
		"topo", "routing", "n", "hosts", "collective", "algo", "reps",
		"makespan_us", "ci95_us", "completed", "wdog", "phase_us")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %-10s %6d %6d %-12s %-17s %4d %12.1f %10.1f %9.2f %5v ",
			r.Name, r.Routing, r.N, r.Hosts, r.Collective, r.Algo, r.Reps,
			r.MakespanUS, r.MakespanCI, r.CompletedRate, r.Watchdog)
		for i, p := range r.PhaseUS {
			name := ""
			if i < len(r.PhaseNames) {
				name = r.PhaseNames[i]
			}
			fmt.Fprintf(w, " %s=%.1f", name, p)
		}
		fmt.Fprintln(w)
	}
}
