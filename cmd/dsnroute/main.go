// Command dsnroute traces routes through DSN topologies and reports
// routing statistics: the custom three-phase algorithm (centralized,
// switch-local, and overshoot-free variants), plus the aggregate
// RoutingReport against the Theorem 1(c) bound.
//
// Usage:
//
//	dsnroute -n 64 -s 3 -t 52                 # trace one pair
//	dsnroute -n 64 -s 3 -t 52 -algo noovershoot
//	dsnroute -n 60 -variant e -s 7 -t 44 -algo local
//	dsnroute -n 1024 -report                  # aggregate statistics
//	dsnroute -n 64 -s 3 -t 52 -multipath -k 4 # canonical sprayed path set
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"dsnet"
	"dsnet/internal/catalog"
)

func main() {
	var (
		n       = flag.Int("n", 64, "number of switches")
		variant = flag.String("variant", "basic", "DSN variant: basic, e, v, d")
		s       = flag.Int("s", 0, "source switch")
		t       = flag.Int("t", 1, "destination switch")
		algo    = flag.String("algo", "custom", "algorithm: custom, local, noovershoot, short (DSN-D only)")
		report  = flag.Bool("report", false, "print aggregate routing statistics instead of one trace")
		stride  = flag.Int("stride", 1, "sample every stride-th pair in -report mode")
		mp      = flag.Bool("multipath", false, "print the pair's canonical edge-disjoint path set instead of a single route")
		k       = flag.Int("k", 4, "with -multipath: edge-disjoint paths per pair (1..15)")
	)
	flag.Parse()
	if *mp {
		if err := runMultipath(*n, *variant, *s, *t, *k); err != nil {
			fmt.Fprintln(os.Stderr, "dsnroute:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*n, *variant, *s, *t, *algo, *report, *stride); err != nil {
		fmt.Fprintln(os.Stderr, "dsnroute:", err)
		os.Exit(1)
	}
}

// variants maps each -variant onto its catalog fabric.
var variants = map[string]string{"basic": "dsn", "e": "dsn-e", "v": "dsn-v", "d": "dsn-d"}

// dsnOf looks the variant up in the catalog and builds it at n switches.
func dsnOf(n int, variant string) (*dsnet.DSN, error) {
	name, ok := variants[variant]
	if !ok {
		return nil, fmt.Errorf("unknown variant %q", variant)
	}
	f, err := catalog.Build(catalog.Spec{Name: name, N: n})
	return f.DSN, err
}

func run(n int, variant string, s, t int, algo string, report bool, stride int) error {
	d, err := dsnOf(n, variant)
	if err != nil {
		return err
	}
	if report {
		rep, err := d.RoutingReport(stride)
		if err != nil {
			return err
		}
		fmt.Printf("%v routing report (stride %d)\n%s\n", d, stride, rep)
		fmt.Println("channel-class hops:")
		classes := make([]dsnet.LinkClass, 0, len(rep.ClassHops))
		for class := range rep.ClassHops { // dsnlint:ok maprange keys sorted below
			classes = append(classes, class)
		}
		sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
		for _, class := range classes {
			fmt.Printf("  %-12s %d\n", class, rep.ClassHops[class])
		}
		return nil
	}
	var route *dsnet.Route
	switch algo {
	case "custom":
		route, err = d.Route(s, t)
	case "local":
		route, err = d.RouteLocal(s, t)
	case "noovershoot":
		route, err = d.RouteNoOvershoot(s, t)
	case "short":
		route, err = d.RouteShortAware(s, t)
	default:
		return fmt.Errorf("unknown algorithm %q", algo)
	}
	if err != nil {
		return err
	}
	sp := d.Graph().ShortestDist(s, t)
	fmt.Printf("%v %s route %d -> %d: %d hops (shortest %d, bound %d)\n",
		d, algo, s, t, route.Len(), sp, d.RoutingDiameterBound())
	for _, h := range route.Hops {
		fmt.Printf("  %-12s %4d -> %-4d level %d -> %d via %s\n",
			h.Phase, h.From, h.To, d.LevelOf(int(h.From)), d.LevelOf(int(h.To)), h.Class)
	}
	return nil
}

// runMultipath prints the pair's canonical edge-disjoint path set — the
// exact routes the spraying router loads into packet headers — plus the
// Menger min-cut bound that caps how many disjoint paths exist at all.
func runMultipath(n int, variant string, s, t, k int) error {
	d, err := dsnOf(n, variant)
	if err != nil {
		return err
	}
	g := d.Graph()
	if s < 0 || s >= g.N() || t < 0 || t >= g.N() || s == t {
		return fmt.Errorf("need distinct switches in [0,%d): s=%d t=%d", g.N(), s, t)
	}
	if k < 1 || k > dsnet.MultipathMaxK {
		return fmt.Errorf("k=%d out of range 1..%d", k, dsnet.MultipathMaxK)
	}
	paths := dsnet.DisjointShortestPaths(g, s, t, k)
	ps := &dsnet.MultipathPathSet{Src: int32(s), Dst: int32(t), Paths: paths}
	ps.Canonicalize()
	if err := ps.Validate(g); err != nil {
		return err
	}
	cut := dsnet.MinCut(g, s, t)
	fmt.Printf("%v multipath path set %d -> %d: %d/%d paths (min cut %d), fingerprint %s\n",
		d, s, t, len(ps.Paths), k, cut, ps.Fingerprint())
	for i, p := range ps.Paths {
		fmt.Printf("  path %d (%d hops):", i, p.Hops())
		for _, v := range p {
			fmt.Printf(" %d", v)
		}
		fmt.Println()
	}
	return nil
}
