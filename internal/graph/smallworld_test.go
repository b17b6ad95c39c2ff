package graph

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

func complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j, KindUnknown)
		}
	}
	return g
}

func TestLocalClustering(t *testing.T) {
	// Triangle: every vertex fully clustered.
	g := complete(3)
	for v := 0; v < 3; v++ {
		if c := g.LocalClustering(v); c != 1 {
			t.Fatalf("triangle clustering %v", c)
		}
	}
	// Star: center has no adjacent neighbor pairs.
	s := New(4)
	s.AddEdge(0, 1, KindUnknown)
	s.AddEdge(0, 2, KindUnknown)
	s.AddEdge(0, 3, KindUnknown)
	if c := s.LocalClustering(0); c != 0 {
		t.Fatalf("star center clustering %v", c)
	}
	if c := s.LocalClustering(1); c != 0 {
		t.Fatalf("leaf clustering %v (degree 1)", c)
	}
}

func TestClusteringCoefficient(t *testing.T) {
	if c := complete(5).ClusteringCoefficient(); c != 1 {
		t.Fatalf("K5 clustering %v", c)
	}
	if c := ring(10).ClusteringCoefficient(); c != 0 {
		t.Fatalf("ring clustering %v", c)
	}
	if c := New(0).ClusteringCoefficient(); c != 0 {
		t.Fatalf("empty clustering %v", c)
	}
	// Watts-Strogatz k=4 ring lattice: C = 0.5.
	n := 20
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, KindRing)
		g.AddEdge(i, (i+2)%n, KindRing)
	}
	if c := g.ClusteringCoefficient(); math.Abs(c-0.5) > 1e-9 {
		t.Fatalf("k=4 lattice clustering %v, want 0.5", c)
	}
}

func TestSmallWorldIndex(t *testing.T) {
	// A Watts-Strogatz graph (lattice + a few random rewires) should have
	// sigma well above the pure ring lattice's.
	n := 100
	lattice := New(n)
	for i := 0; i < n; i++ {
		lattice.AddEdge(i, (i+1)%n, KindRing)
		lattice.AddEdge(i, (i+2)%n, KindRing)
	}
	ws := lattice.Clone()
	rng := rand.New(rand.NewPCG(5, 5))
	for k := 0; k < 10; k++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v {
			ws.AddEdgeOnce(u, v, KindRandom)
		}
	}
	sigLattice := lattice.SmallWorldIndex()
	sigWS := ws.SmallWorldIndex()
	if sigWS <= sigLattice {
		t.Fatalf("shortcut graph sigma %.2f not above lattice %.2f", sigWS, sigLattice)
	}
	if sigWS <= 1 {
		t.Fatalf("Watts-Strogatz sigma %.2f should exceed 1", sigWS)
	}
	if New(2).SmallWorldIndex() != 0 {
		t.Fatal("degenerate sigma should be 0")
	}
	d := New(4)
	d.AddEdge(0, 1, KindRing)
	if d.SmallWorldIndex() != 0 {
		t.Fatal("disconnected sigma should be 0")
	}
}

func TestEdgeBetweennessPath(t *testing.T) {
	// Path 0-1-2-3: middle edge carries the most shortest paths.
	g := New(4)
	e01 := g.AddEdge(0, 1, KindRing)
	e12 := g.AddEdge(1, 2, KindRing)
	e23 := g.AddEdge(2, 3, KindRing)
	bc := g.EdgeBetweenness()
	// Ordered pairs crossing e12: (0,2),(0,3),(1,2),(1,3) and reverses = 8.
	// Normalized by n(n-1) = 12.
	if math.Abs(bc[e12]-8.0/12) > 1e-9 {
		t.Fatalf("middle edge betweenness %v, want %v", bc[e12], 8.0/12)
	}
	if math.Abs(bc[e01]-6.0/12) > 1e-9 || math.Abs(bc[e23]-6.0/12) > 1e-9 {
		t.Fatalf("end edge betweenness %v / %v, want 0.5", bc[e01], bc[e23])
	}
}

func TestEdgeBetweennessSymmetricGraph(t *testing.T) {
	// All edges of a ring are equivalent by symmetry.
	g := ring(12)
	bc := g.EdgeBetweenness()
	for i := 1; i < len(bc); i++ {
		if math.Abs(bc[i]-bc[0]) > 1e-9 {
			t.Fatalf("ring betweenness not uniform: %v vs %v", bc[i], bc[0])
		}
	}
	// Sanity: total betweenness equals average path length weighted by
	// shortest path counts... for a cycle every pair has distance d and
	// possibly two shortest paths; just check positivity.
	if bc[0] <= 0 {
		t.Fatal("betweenness should be positive")
	}
}

func TestEdgeBetweennessSplitsEqualPaths(t *testing.T) {
	// Square 0-1-2-3-0: the two shortest paths between opposite corners
	// split the dependency equally; all edges equal by symmetry.
	g := New(4)
	g.AddEdge(0, 1, KindRing)
	g.AddEdge(1, 2, KindRing)
	g.AddEdge(2, 3, KindRing)
	g.AddEdge(3, 0, KindRing)
	bc := g.EdgeBetweenness()
	for i := 1; i < 4; i++ {
		if math.Abs(bc[i]-bc[0]) > 1e-9 {
			t.Fatalf("square betweenness not uniform: %v", bc)
		}
	}
}

func TestEdgeBetweennessStarBottleneck(t *testing.T) {
	// In a star all traffic crosses the hub edges.
	s := New(5)
	for i := 1; i < 5; i++ {
		s.AddEdge(0, i, KindUnknown)
	}
	bc := s.EdgeBetweenness()
	// Each spoke edge carries paths to/from its leaf: (leaf,other) pairs:
	// 2*(1 + 3) = 8 of 20 ordered pairs.
	for _, v := range bc {
		if math.Abs(v-8.0/20) > 1e-9 {
			t.Fatalf("star betweenness %v, want 0.4", bc)
		}
	}
}

// TestEdgeBetweennessDeterministic requires identical bits from every
// run, whatever the scheduling and the worker count: on a ring with
// random chords, floating-point sums merged in a schedule-dependent
// order differ in their last bits from run to run.
func TestEdgeBetweennessDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	g := ring(200)
	for k := 0; k < 300; k++ {
		u, v := rng.IntN(200), rng.IntN(200)
		if u != v {
			g.AddEdgeOnce(u, v, KindRandom)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := g.EdgeBetweenness()
	runtime.GOMAXPROCS(4)
	for run := 0; run < 20; run++ {
		got := g.EdgeBetweenness()
		for e := range want {
			if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
				t.Fatalf("run %d at GOMAXPROCS 4: edge %d betweenness %v, want %v as at GOMAXPROCS 1", run, e, got[e], want[e])
			}
		}
	}
}

func BenchmarkAllPairs1024(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	g := New(1024)
	for i := 0; i < 1024; i++ {
		g.AddEdge(i, (i+1)%1024, KindRing)
	}
	for k := 0; k < 1024; k++ {
		u, v := rng.IntN(1024), rng.IntN(1024)
		if u != v {
			g.AddEdgeOnce(u, v, KindRandom)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := g.AllPairs()
		if !m.Connected {
			b.Fatal("disconnected")
		}
	}
}

func BenchmarkEdgeBetweenness256(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	g := New(256)
	for i := 0; i < 256; i++ {
		g.AddEdge(i, (i+1)%256, KindRing)
	}
	for k := 0; k < 256; k++ {
		u, v := rng.IntN(256), rng.IntN(256)
		if u != v {
			g.AddEdgeOnce(u, v, KindRandom)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc := g.EdgeBetweenness()
		if len(bc) != g.M() {
			b.Fatal("wrong size")
		}
	}
}

func BenchmarkBFS2048(b *testing.B) {
	g := ring(2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := g.BFS(i % 2048)
		if d[0] == Unreachable && i%2048 != 0 {
			b.Fatal("broken")
		}
	}
}
