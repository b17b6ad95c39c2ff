package catalog

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/multipath"
	"dsnet/internal/netsim"
	"dsnet/internal/topology"
)

// sizeFor is a switch count the fabric supports: DSN-E and DSN-V need a
// multiple of p, and CCC needs d*2^d.
func sizeFor(name string) int {
	switch name {
	case "dsn-e", "dsn-v":
		return 60
	case "ccc":
		return 24
	}
	return 64
}

func build(t *testing.T, s Spec) Fabric {
	t.Helper()
	f, err := Build(s)
	if err != nil {
		t.Fatalf("%+v: %v", s, err)
	}
	return f
}

func text(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var b bytes.Buffer
	if _, err := g.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestFabricsBuild builds every fabric name and label, and checks that
// each label builds the same graph as its name.
func TestFabricsBuild(t *testing.T) {
	for _, fab := range fabrics {
		n := sizeFor(fab.name)
		f := build(t, Spec{Name: fab.name, N: n, Seed: 1})
		if f.Graph.N() != n {
			t.Errorf("%s: N=%d, want %d", fab.name, f.Graph.N(), n)
		}
		for _, label := range fab.labels {
			if got := build(t, Spec{Name: label, N: n, Seed: 1}); text(t, got.Graph) != text(t, f.Graph) {
				t.Errorf("label %s builds another graph than %s", label, fab.name)
			}
		}
	}
}

// TestBuildMatchesConstructors pins each name to its constructor and
// its defaults.
func TestBuildMatchesConstructors(t *testing.T) {
	must := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	dsnGraph := func(d *core.DSN, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return d.Graph()
	}
	cases := []struct {
		spec Spec
		want *graph.Graph
	}{
		{Spec{Name: "RANDOM", N: 64, Seed: 3}, must(topology.DLNRandom(64, 2, 2, 3))},
		{Spec{Name: "dsn", N: 64}, dsnGraph(core.New(64, core.CeilLog2(64)-1))},
		{Spec{Name: "dsn", N: 64, X: 3}, dsnGraph(core.New(64, 3))},
		{Spec{Name: "dsn-d", N: 64}, dsnGraph(core.NewD(64, 2))},
		{Spec{Name: "dsn-d", N: 64, X: 3}, dsnGraph(core.NewD(64, 3))},
		{Spec{Name: "dln", N: 64}, must(topology.DLN(64, 4))},
		{Spec{Name: "dln", N: 64, X: 3}, must(topology.DLN(64, 3))},
	}
	for _, c := range cases {
		if got := build(t, c.spec); text(t, got.Graph) != text(t, c.want) {
			t.Errorf("%+v builds another graph than its constructor", c.spec)
		}
	}
	if f := build(t, Spec{Name: "dsn-v", N: 60}); f.DSN == nil || f.DSN.Variant != core.VariantV {
		t.Errorf("dsn-v carries DSN %v", f.DSN)
	}
	if f := build(t, Spec{Name: "torus3d", N: 64}); f.Torus == nil || f.DSN != nil {
		t.Errorf("torus3d carries torus %v, DSN %v", f.Torus, f.DSN)
	}
}

func TestBuildRejectsBadShapes(t *testing.T) {
	bad := []struct {
		name string
		n    int
	}{
		{"torus3d", 65},   // not a cube
		{"kleinberg", 65}, // not a square
		{"hypercube", 65}, // not a power of two
		{"ccc", 25},       // not d*2^d
		{"debruijn", 65},  // not a power of two
		{"nonsense", 64},
		{"dsn", 0},
		{"hypercube", math.MaxInt}, // 1<<d overflows before reaching n
		{"ccc", math.MaxInt},
		{"torus3d", math.MaxInt},
	}
	for _, c := range bad {
		if _, err := Build(Spec{Name: c.name, N: c.n, Seed: 1}); err == nil {
			t.Errorf("%s n=%d accepted", c.name, c.n)
		}
	}
}

// TestRouterProduct crosses every fabric with every router: each pair
// either returns a factory whose router builds, or the typed error, and
// the refused pairs are exactly the declared requirements.
func TestRouterProduct(t *testing.T) {
	fits := map[string][]string{ // the fabrics each restricted router runs on
		"custom": {"dsn-e", "dsn-v"},
		"unsafe": {"dsn"},
		"dor":    {"torus", "torus3d"},
	}
	routerNames := append(append([]string(nil), RouterNames...), MultipathName(multipath.SelectorRR, 4))
	built, refused := 0, 0
	for _, fabName := range FabricNames {
		f := build(t, Spec{Name: fabName, N: sizeFor(fabName), Seed: 1})
		for _, rtName := range routerNames {
			allowed, restricted := fits[rtName]
			wantRefused := restricted && !slices.Contains(allowed, fabName)
			mk, err := Router(rtName, f, netsim.Default().VCs, 1)
			var unsupported *UnsupportedError
			switch {
			case wantRefused:
				if !errors.As(err, &unsupported) || unsupported.Router != rtName || mk != nil {
					t.Errorf("%s on %s: got %v, want an UnsupportedError", rtName, fabName, err)
				}
				refused++
			case err != nil:
				t.Errorf("%s on %s refused: %v", rtName, fabName, err)
			default:
				if rt, err := mk(); err != nil || rt == nil {
					t.Errorf("%s on %s: factory failed: %v", rtName, fabName, err)
				}
				built++
			}
		}
	}
	if built != 61 || refused != 37 {
		t.Errorf("built %d and refused %d pairs, want 61 and 37", built, refused)
	}
}

// TestMultipathNames round-trips MultipathName for every selector and
// refuses every other spelling.
func TestMultipathNames(t *testing.T) {
	f := build(t, Spec{Name: "ring", N: 16})
	for _, selName := range multipath.SelectorNames {
		sel, err := multipath.ParseSelector(selName)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4, multipath.MaxK} {
			name := MultipathName(sel, k)
			if gotSel, gotK, err := parseMultipath(strings.TrimPrefix(name, "mp-")); err != nil || gotSel != sel || gotK != k {
				t.Errorf("%s parses as %v k=%d (%v)", name, gotSel, gotK, err)
			}
			mk, err := Router(name, f, netsim.Default().VCs, 1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if _, err := mk(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	for _, name := range []string{
		"mp-foo-k4", "mp-rr-k", "mp-rr-k04", "mp-rr-k+4", "mp-rr-k0", "mp-rr-k16", "mp-rr4", "mp-", "bogus",
	} {
		var unsupported *UnsupportedError
		if _, err := Router(name, f, netsim.Default().VCs, 1); err == nil || errors.As(err, &unsupported) {
			t.Errorf("%s: got %v, want an unknown-router error", name, err)
		}
	}
}
