// Command dsnviz renders SVG illustrations: topology chord diagrams,
// machine-room floorplans with cables, and the paper's figure curves.
//
// Usage:
//
//	dsnviz -what topo -topo dsn -n 64 -out dsn64.svg
//	dsnviz -what floor -topo random -n 256 -out floor.svg
//	dsnviz -what fig7 -out fig7.svg
//	dsnviz -what fig10a -quick -out fig10a.svg
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"dsnet"
	"dsnet/internal/catalog"
	"dsnet/internal/viz"
)

func main() {
	var (
		what = flag.String("what", "topo", "what to draw: topo, floor, fig7, fig8, fig9, fig10a, fig10b, fig10c, balance")
		topo = flag.String("topo", "dsn", "topology for topo/floor: "+strings.Join(catalog.FabricNames, ", "))
		n    = flag.Int("n", 64, "switches for topo/floor")
		out  = flag.String("out", "", "output file (default stdout)")
		seed = flag.Uint64("seed", 1, "seed")
		size = flag.Int("size", 560, "image size in pixels")
		fast = flag.Bool("quick", false, "short simulation windows for fig10*")
	)
	flag.Parse()
	svg, err := render(*what, *topo, *n, *seed, *size, *fast)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsnviz:", err)
		os.Exit(1)
	}
	if *out == "" {
		fmt.Println(svg)
		return
	}
	if err := os.WriteFile(*out, []byte(svg), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "dsnviz:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", *out, len(svg))
}

func render(what, topo string, n int, seed uint64, size int, fast bool) (string, error) {
	switch what {
	case "topo", "floor":
		f, err := catalog.Build(catalog.Spec{Name: topo, N: n, Seed: seed})
		if err != nil {
			return "", err
		}
		if what == "topo" {
			return viz.RingSVG(f.Graph, size), nil
		}
		l, err := dsnet.NewLayout(n, dsnet.DefaultLayoutConfig())
		if err != nil {
			return "", err
		}
		return viz.FloorplanSVG(l, f.Graph, size)
	case "fig7", "fig8":
		rows, err := dsnet.PathSweep(context.Background(), nil, []int{5, 6, 7, 8, 9, 10, 11}, []uint64{seed})
		if err != nil {
			return "", err
		}
		metric := "diameter (hops)"
		pick := func(r dsnet.PathRow, name string) float64 { return r.Diameter[name] }
		if what == "fig8" {
			metric = "average shortest path (hops)"
			pick = func(r dsnet.PathRow, name string) float64 { return r.ASPL[name] }
		}
		var series []viz.Series
		for _, name := range dsnet.ComparisonNames {
			s := viz.Series{Name: name}
			for _, r := range rows {
				s.X = append(s.X, float64(r.LogN))
				s.Y = append(s.Y, pick(r, name))
			}
			series = append(series, s)
		}
		return viz.CurvesSVG(metric+" vs network size", "log2 N", metric, series, size, size*3/4), nil
	case "fig9":
		rows, err := dsnet.CableSweep(context.Background(), nil, []int{5, 6, 7, 8, 9, 10, 11}, []uint64{seed}, dsnet.DefaultLayoutConfig())
		if err != nil {
			return "", err
		}
		var series []viz.Series
		for _, name := range dsnet.ComparisonNames {
			s := viz.Series{Name: name}
			for _, r := range rows {
				s.X = append(s.X, float64(r.LogN))
				s.Y = append(s.Y, r.Average[name])
			}
			series = append(series, s)
		}
		return viz.CurvesSVG("average cable length vs network size", "log2 N", "metres", series, size, size*3/4), nil
	case "balance":
		cfg := dsnet.DefaultSimConfig()
		cfg.Seed = seed
		if fast {
			cfg.WarmupCycles = 3000
			cfg.MeasureCycles = 6000
			cfg.DrainCycles = 8000
		}
		res, err := dsnet.BalanceComparison(cfg, 64, 0.01)
		if err != nil {
			return "", err
		}
		var bars []viz.Bar
		for _, r := range res {
			bars = append(bars, viz.Bar{Label: r.Scheme + " max/avg", Value: r.MaxAvg})
		}
		return viz.BarsSVG("channel load concentration (lower is more balanced)", "x", bars, size), nil
	case "fig10a", "fig10b", "fig10c":
		pattern := map[string]string{"fig10a": "uniform", "fig10b": "bit-reversal", "fig10c": "neighboring"}[what]
		cfg := dsnet.DefaultSimConfig()
		cfg.Seed = seed
		if fast {
			cfg.WarmupCycles = 3000
			cfg.MeasureCycles = 6000
			cfg.DrainCycles = 8000
		}
		curves, err := dsnet.Fig10Curves(context.Background(), nil, cfg, pattern, []float64{0.01, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12}, seed)
		if err != nil {
			return "", err
		}
		var series []viz.Series
		for _, c := range curves {
			s := viz.Series{Name: c.Topology}
			for _, p := range c.Points {
				if p.Saturated {
					continue
				}
				s.X = append(s.X, p.AcceptedGbps)
				s.Y = append(s.Y, p.AvgLatencyNS)
			}
			series = append(series, s)
		}
		return viz.CurvesSVG("latency vs accepted traffic ("+pattern+")",
			"accepted [Gbit/s/host]", "latency [ns]", series, size, size*3/4), nil
	default:
		return "", fmt.Errorf("unknown -what %q", what)
	}
}
