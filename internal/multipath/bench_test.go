package multipath

import (
	"testing"

	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/topology"
)

// tableSink keeps the compiler from discarding the measured builds.
var tableSink *Table

// BenchmarkBuildTable times one k-path table build with its
// allocations: DSN-V-36 at k=4 is the table a chaos-resilience
// multipath cell builds, and the 8x8 torus at k=4 is the regular fabric
// whose four disjoint paths meet the min-cut bound.
func BenchmarkBuildTable(b *testing.B) {
	dv, err := core.NewV(36)
	if err != nil {
		b.Fatal(err)
	}
	tor, err := topology.Torus2D(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"dsn-v36/k=4", dv.Graph()}, {"torus8x8/k=4", tor.Graph()}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tab, err := BuildTable(c.g, 4)
				if err != nil {
					b.Fatal(err)
				}
				tableSink = tab
			}
		})
	}
}
