package multipath

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/table_goldens.txt from the current search")

const goldensFile = "testdata/table_goldens.txt"

// goldenFabric is one graph the path-table golden pins.
type goldenFabric struct {
	name string
	g    *graph.Graph
}

// goldenFabrics returns the fabrics of the path-table golden: the
// DSN-V and DSN-E chaos shapes (DSN-E carries parallel ring and Extra
// wires), the basic DSN and the torus and RANDOM baselines of Fig. 10.
func goldenFabrics(t testing.TB) []goldenFabric {
	t.Helper()
	dv, err := core.NewV(36)
	if err != nil {
		t.Fatal(err)
	}
	de, err := core.NewE(60)
	if err != nil {
		t.Fatal(err)
	}
	d64, err := core.New(64, core.CeilLog2(64)-1)
	if err != nil {
		t.Fatal(err)
	}
	tor, err := topology.Torus2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := topology.DLNRandom(64, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []goldenFabric{
		{"dsn-v36", dv.Graph()}, {"dsn-e60", de.Graph()}, {"dsn64", d64.Graph()},
		{"torus8x8", tor.Graph()}, {"random64", rnd},
	}
}

// TestTableGoldens pins the k-path tables (Table.Fingerprint) and a few
// Yen enumerations (KShortest, as a PathSet fingerprint) of every golden
// fabric at k = 1, 2, 4 and 8. Both are pure functions of the graph and
// k, and the simulator's cell keys hash the tables, so a change to the
// path search must leave this file alone; only -update rewrites it, for
// an intended change of the paths.
func TestTableGoldens(t *testing.T) {
	var b strings.Builder
	b.WriteString("# k-path table fingerprints and KShortest path-set fingerprints; see golden_test.go.\n")
	b.WriteString("# Regenerate only for an intended path change: go test ./internal/multipath -run TestTableGoldens -update\n")
	for _, f := range goldenFabrics(t) {
		n := f.g.N()
		for _, k := range []int{1, 2, 4, 8} {
			tab, err := BuildTable(f.g, k)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "table %s k=%d %s\n", f.name, k, tab.Fingerprint())
		}
		for _, pair := range [][2]int{{0, n / 2}, {n - 1, 5}} {
			for _, k := range []int{1, 2, 4, 8} {
				ps := PathSet{Src: int32(pair[0]), Dst: int32(pair[1]), Paths: KShortest(f.g, pair[0], pair[1], k)}
				fmt.Fprintf(&b, "kshortest %s %d->%d k=%d %s\n", f.name, pair[0], pair[1], k, ps.Fingerprint())
			}
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(goldensFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldensFile)
	if err != nil {
		t.Fatalf("%v (run go test -run TestTableGoldens -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("%d lines, want %d", len(gl), len(wl))
		}
	}
}
