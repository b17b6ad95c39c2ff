// Package catalog names the fabrics and routers the tools build. One
// table maps each fabric name, and the labels already printed for it, to
// its constructor; a second maps each router name to its factory and to
// what it needs of the fabric. A router asked of a fabric that lacks it
// is refused with an *UnsupportedError before anything is built, so every
// command, sweep and chaos target refuses the same pairs the same way.
package catalog

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/multipath"
	"dsnet/internal/netsim"
	"dsnet/internal/topology"
)

// Spec names a fabric and the parameters its constructor reads.
type Spec struct {
	Name string // a fabric name or label (FabricNames)
	N    int    // switches
	// X is the family parameter, 0 for its default: the DSN ladder x
	// (default p-1), the DSN-D short-link spacing k (default 2) or the
	// DLN degree (default 4). Other fabrics ignore it.
	X    int
	Seed uint64 // read by random and kleinberg only
}

// Fabric is a built fabric: its graph, plus the DSN or torus it was
// built from, which the routers that need more than a graph read.
type Fabric struct {
	Graph *graph.Graph
	DSN   *core.DSN       // dsn, dsn-e, dsn-v and dsn-d
	Torus *topology.Torus // torus and torus3d
}

// fabrics is the fabric table, in FabricNames order. labels are the
// other spellings in use: the figures print DSN, Torus and RANDOM.
var fabrics = []struct {
	name   string
	labels []string
	build  func(s Spec) (Fabric, error)
}{
	{"dsn", []string{"DSN"}, func(s Spec) (Fabric, error) {
		return dsn(core.New(s.N, cmp.Or(s.X, core.CeilLog2(s.N)-1)))
	}},
	{"dsn-e", nil, func(s Spec) (Fabric, error) { return dsn(core.NewE(s.N)) }},
	{"dsn-v", nil, func(s Spec) (Fabric, error) { return dsn(core.NewV(s.N)) }},
	{"dsn-d", nil, func(s Spec) (Fabric, error) { return dsn(core.NewD(s.N, cmp.Or(s.X, 2))) }},
	{"bidsn", nil, func(s Spec) (Fabric, error) {
		b, err := core.NewBidirectional(s.N)
		if err != nil {
			return Fabric{}, err
		}
		return Fabric{Graph: b.Graph()}, nil
	}},
	{"torus", []string{"Torus"}, func(s Spec) (Fabric, error) { return torus(topology.Torus2DFor(s.N)) }},
	{"torus3d", nil, func(s Spec) (Fabric, error) {
		a, err := root(s.N, 2, "a cube", func(a int) int { return a * a * a })
		if err != nil {
			return Fabric{}, err
		}
		return torus(topology.Torus3D(a, a, a))
	}},
	{"random", []string{"RANDOM"}, func(s Spec) (Fabric, error) { return plain(topology.DLNRandom(s.N, 2, 2, s.Seed)) }},
	{"dln", nil, func(s Spec) (Fabric, error) { return plain(topology.DLN(s.N, cmp.Or(s.X, 4))) }},
	{"ring", nil, func(s Spec) (Fabric, error) { return plain(topology.Ring(s.N)) }},
	{"kleinberg", nil, func(s Spec) (Fabric, error) {
		a, err := root(s.N, 1, "a square", func(a int) int { return a * a })
		if err != nil {
			return Fabric{}, err
		}
		k, err := topology.NewKleinberg(a, 1, s.Seed)
		if err != nil {
			return Fabric{}, err
		}
		return Fabric{Graph: k.Graph()}, nil
	}},
	{"hypercube", nil, func(s Spec) (Fabric, error) {
		d, err := root(s.N, 0, "a power of two", func(d int) int { return 1 << d })
		if err != nil {
			return Fabric{}, err
		}
		return plain(topology.Hypercube(d))
	}},
	{"ccc", nil, func(s Spec) (Fabric, error) {
		d, err := root(s.N, 3, "d*2^d for any d", func(d int) int { return d << d })
		if err != nil {
			return Fabric{}, err
		}
		return plain(topology.CCC(d))
	}},
	{"debruijn", nil, func(s Spec) (Fabric, error) {
		m, err := root(s.N, 2, "a power of two", func(m int) int { return 1 << m })
		if err != nil {
			return Fabric{}, err
		}
		return plain(topology.DeBruijn(m))
	}},
}

func dsn(d *core.DSN, err error) (Fabric, error) {
	if err != nil {
		return Fabric{}, err
	}
	return Fabric{Graph: d.Graph(), DSN: d}, nil
}

func torus(t *topology.Torus, err error) (Fabric, error) {
	if err != nil {
		return Fabric{}, err
	}
	return Fabric{Graph: t.Graph(), Torus: t}, nil
}

func plain(g *graph.Graph, err error) (Fabric, error) { return Fabric{Graph: g}, err }

// root returns the a >= lo with f(a) == n for an increasing f, or an
// error saying that n is not of the shape f makes. The search stops
// where f overflows, so a huge n is refused instead of spinning.
func root(n, lo int, shape string, f func(int) int) (int, error) {
	a := lo
	for f(a) < n && f(a+1) > f(a) {
		a++
	}
	if f(a) != n {
		return 0, fmt.Errorf("catalog: n=%d is not %s", n, shape)
	}
	return a, nil
}

// FabricNames lists the fabric names Build accepts, besides the labels.
var FabricNames = func() []string {
	names := make([]string, len(fabrics))
	for i, f := range fabrics {
		names[i] = f.name
	}
	return names
}()

// Build constructs the fabric s names.
func Build(s Spec) (Fabric, error) {
	if s.N < 1 {
		return Fabric{}, fmt.Errorf("catalog: %s needs n >= 1, got %d", s.Name, s.N)
	}
	for _, f := range fabrics {
		if f.name == s.Name || slices.Contains(f.labels, s.Name) {
			return f.build(s)
		}
	}
	return Fabric{}, fmt.Errorf("catalog: unknown fabric %q (fabrics: %s)", s.Name, strings.Join(FabricNames, ", "))
}

// routers is the router table, in RouterNames order. A nil fits runs on
// any fabric; otherwise needs says, for the error, what fits asks for.
var routers = []struct {
	name  string
	needs string
	fits  func(f Fabric) bool
	build func(f Fabric, vcs int) (netsim.Router, error)
}{
	{"adaptive", "", nil, func(f Fabric, vcs int) (netsim.Router, error) { return netsim.NewDuatoUpDown(f.Graph, vcs) }},
	{"updown", "", nil, func(f Fabric, vcs int) (netsim.Router, error) { return netsim.NewUpDownOnly(f.Graph, vcs) }},
	{"valiant", "", nil, func(f Fabric, vcs int) (netsim.Router, error) { return netsim.NewValiant(f.Graph, vcs) }},
	{"custom", "a DSN-E or DSN-V fabric",
		func(f Fabric) bool {
			return f.DSN != nil && (f.DSN.Variant == core.VariantE || f.DSN.Variant == core.VariantV)
		},
		func(f Fabric, _ int) (netsim.Router, error) { return netsim.NewDSNSourceRouted(f.DSN) }},
	{"unsafe", "the basic DSN fabric",
		func(f Fabric) bool { return f.DSN != nil && f.DSN.Variant == core.VariantBasic },
		func(f Fabric, _ int) (netsim.Router, error) { return netsim.NewDSNSourceRoutedUnsafe(f.DSN) }},
	{"dor", "a torus fabric",
		func(f Fabric) bool { return f.Torus != nil },
		func(f Fabric, vcs int) (netsim.Router, error) { return netsim.NewDORTorus(f.Torus, vcs) }},
}

// RouterNames lists the router names Router accepts, besides the
// multipath spellings of MultipathName.
var RouterNames = func() []string {
	names := make([]string, len(routers))
	for i, r := range routers {
		names[i] = r.name
	}
	return names
}()

// MultipathPattern is how help texts print MultipathName's spellings.
const MultipathPattern = "mp-<selector>-k<k>"

// MultipathName names the multipath spraying router with selector sel
// and k paths per pair.
func MultipathName(sel multipath.Selector, k int) string {
	return fmt.Sprintf("mp-%s-k%d", sel, k)
}

// parseMultipath inverts MultipathName on a name without its "mp-"
// prefix. It refuses any other spelling of k (k04, k+4) and any k
// outside 1..multipath.MaxK.
func parseMultipath(rest string) (multipath.Selector, int, error) {
	i := strings.LastIndex(rest, "-k")
	if i >= 0 {
		sel, err := multipath.ParseSelector(rest[:i])
		k, kErr := strconv.Atoi(rest[i+2:])
		if err == nil && kErr == nil && strconv.Itoa(k) == rest[i+2:] && k >= 1 && k <= multipath.MaxK {
			return sel, k, nil
		}
	}
	return 0, 0, fmt.Errorf("catalog: router %q is not %s with a selector in %v and k in 1..%d",
		"mp-"+rest, MultipathPattern, multipath.SelectorNames, multipath.MaxK)
}

// UnsupportedError refuses a router on a fabric that lacks what the
// router needs. Every refused pair returns one.
type UnsupportedError struct {
	Router string // the router name
	Needs  string // what it needs of the fabric
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("catalog: router %s needs %s", e.Router, e.Needs)
}

// Router returns a factory for the named router on f, or an
// *UnsupportedError, before building anything, if f lacks what the
// router needs. Every call of the factory builds a fresh router, since
// fault-aware routers mutate their tables as faults land. vcs is the
// simulator's VC count; seed seeds the multipath static selector.
func Router(name string, f Fabric, vcs int, seed uint64) (func() (netsim.Router, error), error) {
	if rest, ok := strings.CutPrefix(name, "mp-"); ok {
		sel, k, err := parseMultipath(rest)
		if err != nil {
			return nil, err
		}
		cfg := multipath.Config{K: k, VCs: vcs, Selector: sel, Seed: seed}
		return func() (netsim.Router, error) { return multipath.New(f.Graph, cfg) }, nil
	}
	for _, r := range routers {
		if r.name != name {
			continue
		}
		if r.fits != nil && !r.fits(f) {
			return nil, &UnsupportedError{Router: name, Needs: r.needs}
		}
		return func() (netsim.Router, error) { return r.build(f, vcs) }, nil
	}
	return nil, fmt.Errorf("catalog: unknown router %q (routers: %s, %s)", name, strings.Join(RouterNames, ", "), MultipathPattern)
}
