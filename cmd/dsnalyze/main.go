// Command dsnalyze builds an interconnect topology and prints its graph
// metrics: size, degrees, diameter, average shortest path length, and the
// DSN-specific theorem bounds where applicable.
//
// Usage:
//
//	dsnalyze -topo dsn -n 1024
//	dsnalyze -topo torus -n 256
//	dsnalyze -topo random -n 512 -seed 7
//	dsnalyze -topo dsn-e -n 126
//	dsnalyze -topo kleinberg -n 1024
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"dsnet"
	"dsnet/internal/catalog"
)

func main() {
	var (
		topo       = flag.String("topo", "dsn", "topology: "+strings.Join(catalog.FabricNames, ", "))
		n          = flag.Int("n", 64, "number of switches")
		x          = flag.Int("x", 0, "dsn: shortcut ladder size x (default p-1); dsn-d: short-link spacing k (default 2); dln: degree (default 4)")
		seed       = flag.Uint64("seed", 1, "seed for randomized topologies")
		smallWorld = flag.Bool("smallworld", false, "also print clustering coefficient and small-world sigma")
		bottleneck = flag.Bool("bottleneck", false, "also print edge-betweenness load concentration")
		diversity  = flag.Bool("diversity", false, "also print edge-disjoint path diversity against the min-cut bound")
		k          = flag.Int("k", 4, "with -diversity: per-pair path budget (1..15)")
		export     = flag.String("export", "", "write the topology as a dsnet-graph edge list to this file")
	)
	flag.Parse()
	if err := run(*topo, *n, *x, *seed, *smallWorld, *bottleneck, *diversity, *k, *export); err != nil {
		fmt.Fprintln(os.Stderr, "dsnalyze:", err)
		os.Exit(1)
	}
}

func run(topo string, n, x int, seed uint64, smallWorld, bottleneck, diversity bool, k int, export string) error {
	f, err := catalog.Build(catalog.Spec{Name: topo, N: n, X: x, Seed: seed})
	if err != nil {
		return err
	}
	g, d := f.Graph, f.DSN
	if export != "" {
		f, err := os.Create(export)
		if err != nil {
			return err
		}
		if _, err := g.WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "exported %s\n", export)
	}
	m := g.AllPairs()
	fmt.Printf("topology        %s\n", topo)
	fmt.Printf("switches        %d\n", g.N())
	fmt.Printf("links           %d\n", g.M())
	fmt.Printf("degree          min %d / avg %.2f / max %d\n", g.MinDegree(), g.AverageDegree(), g.MaxDegree())
	hist := g.DegreeHistogram()
	degs := make([]int, 0, len(hist))
	for deg := range hist { // dsnlint:ok maprange keys sorted below
		degs = append(degs, deg)
	}
	sort.Ints(degs)
	for _, deg := range degs {
		fmt.Printf("  degree %-2d     %d switches\n", deg, hist[deg])
	}
	fmt.Printf("connected       %v\n", m.Connected)
	fmt.Printf("diameter        %d hops\n", m.Diameter)
	fmt.Printf("avg path        %.3f hops\n", m.ASPL)
	if d != nil {
		fmt.Printf("p (levels)      %d\n", d.P)
		fmt.Printf("r (n mod p)     %d\n", d.R)
		fmt.Printf("x (ladder)      %d\n", d.X)
		if d.BoundsApply() {
			fmt.Printf("thm1 diameter   <= %.1f (measured %d)\n", d.DiameterBound(), m.Diameter)
			fmt.Printf("thm1 routing    <= %d hops\n", d.RoutingDiameterBound())
		}
	}
	if smallWorld {
		fmt.Printf("clustering      %.4f\n", g.ClusteringCoefficient())
		fmt.Printf("small-world     sigma = %.2f (>1 indicates small-world structure)\n", g.SmallWorldIndex())
	}
	if bottleneck {
		bc := g.EdgeBetweenness()
		var mean, max float64
		for _, v := range bc {
			mean += v
			if v > max {
				max = v
			}
		}
		mean /= float64(len(bc))
		fmt.Printf("betweenness     mean %.4f / max %.4f (max/mean %.2f)\n", mean, max, max/mean)
	}
	if diversity {
		tab, err := dsnet.BuildMultipathTable(g, k)
		if err != nil {
			return err
		}
		div, err := dsnet.PathDiversityFor(g, k, tab)
		if err != nil {
			return err
		}
		fmt.Printf("min cut         min %d / mean %.2f over %d pairs\n", div.MinCutMin, div.MinCutMean, div.Pairs)
		fmt.Printf("disjoint paths  min %d / mean %.2f at k=%d (spraying realizes %.0f%% of the min-cut headroom)\n",
			div.DisjointMin, div.DisjointMean, k, 100*div.DisjointMean/div.MinCutMean)
	}
	return nil
}
