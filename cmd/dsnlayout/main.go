// Command dsnlayout prices the cabling of the comparison topologies under
// the Section VI.B machine-room floorplan, for a single size or across
// the paper's sweep.
//
// Usage:
//
//	dsnlayout -n 1024            # one size, detailed per-topology stats
//	dsnlayout -sweep             # Figure 9 table (32..2048 switches)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"dsnet"
)

func main() {
	var (
		n        = flag.Int("n", 1024, "number of switches")
		sweep    = flag.Bool("sweep", false, "print the full Figure 9 sweep")
		seed     = flag.Uint64("seed", 1, "seed for the RANDOM topology")
		perC     = flag.Int("per-cabinet", 16, "switches per cabinet")
		optimize = flag.Int("optimize", 0, "anneal the switch placement for this many iterations (the layout optimization of reference [7])")
	)
	flag.Parse()
	cfg := dsnet.DefaultLayoutConfig()
	cfg.SwitchesPerCabinet = *perC
	if err := run(*n, *sweep, *seed, cfg, *optimize); err != nil {
		fmt.Fprintln(os.Stderr, "dsnlayout:", err)
		os.Exit(1)
	}
}

func run(n int, sweep bool, seed uint64, cfg dsnet.LayoutConfig, optimize int) error {
	if sweep {
		rows, err := dsnet.CableSweep(context.Background(), nil, []int{5, 6, 7, 8, 9, 10, 11}, []uint64{seed}, cfg)
		if err != nil {
			return err
		}
		fmt.Println("# Figure 9: average cable length (m) vs network size")
		dsnet.WriteCableTable(os.Stdout, rows)
		return nil
	}
	graphs, err := dsnet.BuildComparison(n, seed)
	if err != nil {
		return err
	}
	l, err := dsnet.NewLayout(n, cfg)
	if err != nil {
		return err
	}
	w, d := l.FloorDims()
	fmt.Printf("switches %d  cabinets %d  grid %dx%d  floor %.1fm x %.1fm\n\n",
		n, l.Cabinets, l.Rows, l.PerRow, w, d)
	fmt.Printf("%-8s %8s %10s %10s %10s %10s\n", "topo", "links", "avg (m)", "max (m)", "total (m)", "inter")
	for _, name := range dsnet.ComparisonNames {
		g := graphs[name]
		s, err := l.Cables(g)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %8d %10.2f %10.2f %10.0f %10d\n",
			name, g.M(), s.Average, s.Max, s.Total, s.InterLinks)
	}
	if optimize > 0 {
		fmt.Printf("\nplacement optimization (%d annealing iterations):\n", optimize)
		for _, name := range dsnet.ComparisonNames {
			_, base, best, err := l.OptimizePlacement(graphs[name], optimize, seed)
			if err != nil {
				return err
			}
			fmt.Printf("%-8s %10.0f m -> %10.0f m  (-%.1f%%)\n", name, base, best, (1-best/base)*100)
		}
	}
	return nil
}
