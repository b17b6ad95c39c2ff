// Package analysis contains the experiment drivers that regenerate every
// figure of the paper's evaluation:
//
//	Figure 7:  diameter vs network size        (PathSweep)
//	Figure 8:  avg shortest path vs size       (PathSweep)
//	Figure 9:  avg cable length vs size        (CableSweep)
//	Figure 10: latency vs accepted traffic     (LatencySweep / Fig10Curves)
//
// plus the traffic-balance comparison the paper sketches for its custom
// routing (BalanceComparison).
//
// The sweeps that run as harness cell grids (PathSweep, CableSweep,
// LatencySweep, Fig10Curves, FaultSweep, DegradationSweep,
// CollectiveSweep, ChaosSweep, RecoverySweep, MultipathSweep and
// DiversitySweep) share one shape, X(ctx, r, ...). Their cells run on
// r's worker pool and cache (nil: harness.Default()) and are assembled
// in the serial order, so the result does not depend on the worker
// count. Cancelling ctx stops dispatching cells, and the sweep returns
// ctx.Err() instead of a partial result.
//
// Topology names used throughout match the paper: "DSN" (the basic
// DSN-(p-1)), "Torus" (near-square 2-D torus) and "RANDOM" (DLN-2-2).
package analysis

import (
	"context"
	"fmt"
	"io"
	"slices"

	"dsnet/internal/catalog"
	"dsnet/internal/graph"
	"dsnet/internal/harness"
	"dsnet/internal/layout"
)

// Topologies compared in the graph and layout analyses, in presentation
// order.
var Names = []string{"Torus", "RANDOM", "DSN"}

// BuildTopology constructs one named comparison topology (see Names)
// at n switches; the RANDOM instance uses the given seed. Sweep cells
// rebuild their own topology from (name, n, seed) so that a cell is a
// pure function of its key; construction is deterministic, so per-cell
// rebuilds cost a little CPU and buy full independence. Request-driven
// callers (dsnserve) use it too, so it refuses every other catalog
// fabric.
func BuildTopology(name string, n int, seed uint64) (*graph.Graph, error) {
	if !slices.Contains(Names, name) {
		return nil, fmt.Errorf("analysis: unknown comparison topology %q", name)
	}
	f, err := catalog.Build(catalog.Spec{Name: name, N: n, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("analysis: %s at n=%d: %w", name, n, err)
	}
	return f.Graph, nil
}

// BuildComparison constructs the paper's three degree-4 comparison
// topologies at n switches. The RANDOM instance uses the given seed.
func BuildComparison(n int, seed uint64) (map[string]*graph.Graph, error) {
	out := make(map[string]*graph.Graph, len(Names))
	for _, name := range Names {
		g, err := BuildTopology(name, n, seed)
		if err != nil {
			return nil, err
		}
		out[name] = g
	}
	return out, nil
}

// PathRow is one network size of Figures 7 and 8.
type PathRow struct {
	LogN     int
	N        int
	Diameter map[string]float64 // averaged over seeds for RANDOM
	ASPL     map[string]float64
}

// pathCell is the memoized result of one (size, topology, seed)
// all-pairs measurement.
type pathCell struct {
	Diameter int32
	ASPL     float64
}

// PathSweep computes diameter and average shortest path length for every
// log2 size in logSizes (the paper sweeps 5..11). Random topologies are
// averaged over the provided seeds. Each (size, topology, seed)
// measurement is one cell, assembled into rows in the serial order.
func PathSweep(ctx context.Context, r *harness.Runner, logSizes []int, seeds []uint64) ([]PathRow, error) {
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	var cells []harness.Cell[pathCell]
	for _, lg := range logSizes {
		n := 1 << uint(lg)
		for si, seed := range seeds {
			for _, name := range Names {
				if si > 0 && name != "RANDOM" {
					continue // deterministic topologies measured once
				}
				key := harness.NewKey("path")
				key.Topo, key.N, key.Seed = name, n, seed
				cells = append(cells, harness.Cell[pathCell]{Key: key, Run: func() (pathCell, error) {
					g, err := BuildTopology(name, n, seed)
					if err != nil {
						return pathCell{}, err
					}
					m := g.AllPairs()
					if !m.Connected {
						return pathCell{}, fmt.Errorf("analysis: %s at n=%d disconnected", name, n)
					}
					return pathCell{Diameter: m.Diameter, ASPL: m.ASPL}, nil
				}})
			}
		}
	}
	results, err := harness.RunCtx(ctx, r, "path", cells)
	if err != nil {
		return nil, err
	}
	rows := make([]PathRow, 0, len(logSizes))
	i := 0
	for _, lg := range logSizes {
		row := PathRow{
			LogN:     lg,
			N:        1 << uint(lg),
			Diameter: make(map[string]float64),
			ASPL:     make(map[string]float64),
		}
		for si := range seeds {
			for _, name := range Names {
				if si > 0 && name != "RANDOM" {
					continue
				}
				m := results[i]
				i++
				w := 1.0
				if name == "RANDOM" {
					w = 1 / float64(len(seeds))
				}
				row.Diameter[name] += w * float64(m.Diameter)
				row.ASPL[name] += w * m.ASPL
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// CableRow is one network size of Figure 9.
type CableRow struct {
	LogN    int
	N       int
	Average map[string]float64 // metres per link
}

// CableSweep computes the average cable length of each comparison
// topology under the Section VI.B machine-room layout.
func CableSweep(ctx context.Context, r *harness.Runner, logSizes []int, seeds []uint64, cfg layout.Config) ([]CableRow, error) {
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	layoutFP := harness.Fingerprint(fmt.Sprintf("%+v", cfg))
	var cells []harness.Cell[float64]
	for _, lg := range logSizes {
		n := 1 << uint(lg)
		for si, seed := range seeds {
			for _, name := range Names {
				if si > 0 && name != "RANDOM" {
					continue
				}
				key := harness.NewKey("cable")
				key.Topo, key.N, key.Seed = name, n, seed
				key.Params = []harness.Param{harness.P("layout", layoutFP)}
				cells = append(cells, harness.Cell[float64]{Key: key, Run: func() (float64, error) {
					g, err := BuildTopology(name, n, seed)
					if err != nil {
						return 0, err
					}
					return layout.AverageCableLength(g, cfg)
				}})
			}
		}
	}
	results, err := harness.RunCtx(ctx, r, "cable", cells)
	if err != nil {
		return nil, err
	}
	rows := make([]CableRow, 0, len(logSizes))
	i := 0
	for _, lg := range logSizes {
		row := CableRow{LogN: lg, N: 1 << uint(lg), Average: make(map[string]float64)}
		for si := range seeds {
			for _, name := range Names {
				if si > 0 && name != "RANDOM" {
					continue
				}
				w := 1.0
				if name == "RANDOM" {
					w = 1 / float64(len(seeds))
				}
				row.Average[name] += w * results[i]
				i++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WritePathTable renders Figure 7 (metric = "diameter") or Figure 8
// (metric = "aspl") as a plain-text table.
func WritePathTable(w io.Writer, rows []PathRow, metric string) error {
	if _, err := fmt.Fprintf(w, "%-8s %-8s", "log2N", "N"); err != nil {
		return err
	}
	for _, name := range Names {
		fmt.Fprintf(w, " %10s", name)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %-8d", r.LogN, r.N)
		for _, name := range Names {
			var v float64
			switch metric {
			case "diameter":
				v = r.Diameter[name]
			case "aspl":
				v = r.ASPL[name]
			default:
				return fmt.Errorf("analysis: unknown metric %q", metric)
			}
			fmt.Fprintf(w, " %10.2f", v)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// WriteCableTable renders Figure 9 as a plain-text table.
func WriteCableTable(w io.Writer, rows []CableRow) {
	fmt.Fprintf(w, "%-8s %-8s", "log2N", "N")
	for _, name := range Names {
		fmt.Fprintf(w, " %10s", name)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d %-8d", r.LogN, r.N)
		for _, name := range Names {
			fmt.Fprintf(w, " %10.2f", r.Average[name])
		}
		fmt.Fprintln(w)
	}
}
