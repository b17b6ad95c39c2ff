package graph

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func ring(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, KindRing)
	}
	return g
}

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got N=%d M=%d, want 5,0", g.N(), g.M())
	}
	for v := 0; v < 5; v++ {
		if g.Degree(v) != 0 {
			t.Errorf("vertex %d degree %d, want 0", v, g.Degree(v))
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	idx := g.AddEdge(0, 1, KindRing)
	if idx != 0 {
		t.Fatalf("first edge index %d, want 0", idx)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Fatal("HasEdge(0,2) should be false")
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatalf("degrees %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	e := g.Edge(0)
	if e.U != 0 || e.V != 1 || e.Kind != KindRing {
		t.Fatalf("edge = %+v", e)
	}
}

func TestAddEdgeSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	New(2).AddEdge(1, 1, KindRing)
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	New(2).AddEdge(0, 2, KindRing)
}

func TestParallelEdgesAllowed(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, KindRing)
	g.AddEdge(0, 1, KindExtra)
	if g.M() != 2 {
		t.Fatalf("M=%d, want 2", g.M())
	}
	if g.Degree(0) != 2 {
		t.Fatalf("degree(0)=%d, want 2 with parallel edges", g.Degree(0))
	}
	if ids := g.NeighborIDs(0); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("NeighborIDs(0)=%v, want [1]", ids)
	}
}

func TestAddEdgeOnce(t *testing.T) {
	g := New(3)
	if !g.AddEdgeOnce(0, 1, KindRing) {
		t.Fatal("first AddEdgeOnce should insert")
	}
	if g.AddEdgeOnce(1, 0, KindShortcut) {
		t.Fatal("second AddEdgeOnce should not insert a parallel edge")
	}
	if g.M() != 1 {
		t.Fatalf("M=%d, want 1", g.M())
	}
}

func TestEdgesByKind(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, KindRing)
	g.AddEdge(1, 2, KindShortcut)
	g.AddEdge(2, 3, KindRing)
	ringEdges := g.EdgesByKind(KindRing)
	if len(ringEdges) != 2 || ringEdges[0] != 0 || ringEdges[1] != 2 {
		t.Fatalf("ring edges = %v", ringEdges)
	}
	if sc := g.EdgesByKind(KindShortcut); len(sc) != 1 || sc[0] != 1 {
		t.Fatalf("shortcut edges = %v", sc)
	}
	if random := g.EdgesByKind(KindRandom); random != nil {
		t.Fatalf("random edges = %v, want nil", random)
	}
}

func TestDegreeStats(t *testing.T) {
	g := ring(6)
	if g.MaxDegree() != 2 || g.MinDegree() != 2 {
		t.Fatalf("max=%d min=%d, want 2,2", g.MaxDegree(), g.MinDegree())
	}
	if avg := g.AverageDegree(); avg != 2 {
		t.Fatalf("avg=%v, want 2", avg)
	}
	h := g.DegreeHistogram()
	if h[2] != 6 || len(h) != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestBFSRing(t *testing.T) {
	g := ring(8)
	dist := g.BFS(0)
	want := []int32{0, 1, 2, 3, 4, 3, 2, 1}
	for i, d := range dist {
		if d != want[i] {
			t.Errorf("dist[%d]=%d, want %d", i, d, want[i])
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, KindRing)
	g.AddEdge(2, 3, KindRing)
	dist := g.BFS(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Fatalf("dist = %v, want unreachable for 2,3", dist)
	}
	if g.Connected() {
		t.Fatal("graph should not be connected")
	}
	if c := g.ComponentCount(); c != 2 {
		t.Fatalf("components=%d, want 2", c)
	}
	if label, _ := g.Components(); !slices.Equal(label, []int32{0, 0, 1, 1}) {
		t.Fatalf("component labels = %v, want [0 0 1 1]", label)
	}
}

func TestShortestDist(t *testing.T) {
	g := ring(10)
	cases := []struct{ s, t, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 5, 5}, {0, 9, 1}, {3, 8, 5},
	}
	for _, c := range cases {
		if d := g.ShortestDist(c.s, c.t); d != int32(c.want) {
			t.Errorf("dist(%d,%d)=%d, want %d", c.s, c.t, d, c.want)
		}
	}
}

func TestShortestDistUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, KindRing)
	if d := g.ShortestDist(0, 2); d != Unreachable {
		t.Fatalf("dist=%d, want Unreachable", d)
	}
}

func TestShortestPath(t *testing.T) {
	g := ring(6)
	p := g.ShortestPath(0, 3)
	if len(p) != 4 {
		t.Fatalf("path=%v, want length 4", p)
	}
	if p[0] != 0 || p[len(p)-1] != 3 {
		t.Fatalf("path endpoints %v", p)
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			t.Fatalf("path %v uses missing edge (%d,%d)", p, p[i], p[i+1])
		}
	}
	if p := g.ShortestPath(2, 2); len(p) != 1 || p[0] != 2 {
		t.Fatalf("trivial path = %v", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(2)
	if p := g.ShortestPath(0, 1); p != nil {
		t.Fatalf("path=%v, want nil", p)
	}
}

func TestAllPairsRing(t *testing.T) {
	g := ring(16)
	m := g.AllPairs()
	if !m.Connected {
		t.Fatal("ring should be connected")
	}
	if m.Diameter != 8 {
		t.Fatalf("diameter=%d, want 8", m.Diameter)
	}
	// ASPL of an even ring C_n is n^2/(4(n-1)).
	want := 16.0 * 16.0 / (4 * 15.0)
	if diff := m.ASPL - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("ASPL=%v, want %v", m.ASPL, want)
	}
	if m.Pairs != 16*15 {
		t.Fatalf("pairs=%d, want 240", m.Pairs)
	}
}

func TestAllPairsMatchesSerialBFS(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := New(60)
	for i := 0; i < 59; i++ {
		g.AddEdge(i, i+1, KindRing)
	}
	for k := 0; k < 40; k++ {
		u, v := rng.IntN(60), rng.IntN(60)
		if u != v {
			g.AddEdgeOnce(u, v, KindRandom)
		}
	}
	m := g.AllPairs()
	var sum int64
	var pairs int64
	var diam int32
	for s := 0; s < g.N(); s++ {
		for v, d := range g.BFS(s) {
			if v == s || d == Unreachable {
				continue
			}
			sum += int64(d)
			pairs++
			if d > diam {
				diam = d
			}
		}
	}
	if m.Diameter != diam {
		t.Fatalf("diameter=%d, want %d", m.Diameter, diam)
	}
	if m.Pairs != pairs {
		t.Fatalf("pairs=%d, want %d", m.Pairs, pairs)
	}
	want := float64(sum) / float64(pairs)
	if diff := m.ASPL - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("ASPL=%v, want %v", m.ASPL, want)
	}
}

func TestAllPairsEmptyAndSingle(t *testing.T) {
	if m := New(0).AllPairs(); !m.Connected || m.Pairs != 0 {
		t.Fatalf("empty graph metrics = %+v", m)
	}
	if m := New(1).AllPairs(); !m.Connected || m.Diameter != 0 {
		t.Fatalf("single vertex metrics = %+v", m)
	}
}

func TestEccentricity(t *testing.T) {
	g := ring(8)
	if e := g.Eccentricity(3); e != 4 {
		t.Fatalf("ecc=%d, want 4", e)
	}
	d := New(3)
	d.AddEdge(0, 1, KindRing)
	if e := d.Eccentricity(0); e != Unreachable {
		t.Fatalf("ecc=%d, want Unreachable", e)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := ring(5)
	c := g.Clone()
	c.AddEdge(0, 2, KindShortcut)
	if g.M() != 5 || c.M() != 6 {
		t.Fatalf("M original=%d clone=%d", g.M(), c.M())
	}
	if g.HasEdge(0, 2) {
		t.Fatal("mutating clone affected original")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateOK(t *testing.T) {
	g := ring(7)
	g.AddEdge(0, 3, KindShortcut)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCorrupt(t *testing.T) {
	g := ring(4)
	g.adj[0][0].To = 3 // break mirror: edge 0 is (0,1)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted corrupt adjacency")
	}
}

func TestEdgeKindString(t *testing.T) {
	if KindRing.String() != "ring" || KindShortcut.String() != "shortcut" {
		t.Fatal("kind names wrong")
	}
	if EdgeKind(200).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}

// Property: for random connected graphs, AllPairs diameter equals the max
// eccentricity and ASPL is within [1, diameter].
func TestQuickAllPairsInvariants(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8, extraRaw uint8) bool {
		n := 3 + int(sizeRaw%40)
		rng := rand.New(rand.NewPCG(seed, 7))
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddEdge(i, (i+1)%n, KindRing)
		}
		for k := 0; k < int(extraRaw%16); k++ {
			u, v := rng.IntN(n), rng.IntN(n)
			if u != v {
				g.AddEdgeOnce(u, v, KindRandom)
			}
		}
		m := g.AllPairs()
		if !m.Connected {
			return false
		}
		var maxEcc int32
		for v := 0; v < n; v++ {
			if e := g.Eccentricity(v); e > maxEcc {
				maxEcc = e
			}
		}
		if m.Diameter != maxEcc {
			return false
		}
		return m.ASPL >= 1 && m.ASPL <= float64(m.Diameter)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distances satisfy the triangle inequality across one edge:
// |d(s,u) - d(s,v)| <= 1 for every edge (u,v) in a connected graph.
func TestQuickBFSLipschitz(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		n := 3 + int(sizeRaw%50)
		rng := rand.New(rand.NewPCG(seed, 13))
		g := New(n)
		for i := 0; i < n; i++ {
			g.AddEdge(i, (i+1)%n, KindRing)
		}
		for k := 0; k < n/2; k++ {
			u, v := rng.IntN(n), rng.IntN(n)
			if u != v {
				g.AddEdgeOnce(u, v, KindRandom)
			}
		}
		dist := g.BFS(rng.IntN(n))
		for _, e := range g.Edges() {
			du, dv := dist[e.U], dist[e.V]
			if du-dv > 1 || dv-du > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAddEdgeCheckedErrors(t *testing.T) {
	g := ring(6) // every vertex at degree 2
	cases := []struct {
		name string
		u, v int
		max  int
		want error
	}{
		{"self-loop", 3, 3, 0, ErrSelfLoop},
		{"u negative", -1, 2, 0, ErrVertexRange},
		{"v too large", 2, 6, 0, ErrVertexRange},
		{"duplicate ring edge", 0, 1, 0, ErrDuplicate},
		{"duplicate reversed", 1, 0, 0, ErrDuplicate},
		{"degree budget at u", 0, 3, 2, ErrDegreeLimit},
	}
	for _, c := range cases {
		m := g.M()
		idx, err := g.AddEdgeChecked(c.u, c.v, KindRandom, c.max)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: AddEdgeChecked(%d,%d,max=%d) err %v, want %v", c.name, c.u, c.v, c.max, err, c.want)
		}
		if idx != -1 {
			t.Errorf("%s: got index %d, want -1", c.name, idx)
		}
		if g.M() != m {
			t.Errorf("%s: edge count changed %d -> %d on failed insert", c.name, m, g.M())
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid after rejected inserts: %v", err)
	}
}

func TestAddEdgeCheckedSuccess(t *testing.T) {
	g := ring(6)
	// Degree budget 3 leaves room for exactly one extra edge per vertex.
	idx, err := g.AddEdgeChecked(0, 3, KindRandom, 3)
	if err != nil {
		t.Fatalf("AddEdgeChecked(0,3): %v", err)
	}
	if e := g.Edge(idx); e.U != 0 || e.V != 3 || e.Kind != KindRandom {
		t.Fatalf("inserted edge %+v, want (0,3,random)", e)
	}
	if g.Degree(0) != 3 || g.Degree(3) != 3 {
		t.Fatalf("degrees %d,%d after insert, want 3,3", g.Degree(0), g.Degree(3))
	}
	// Both endpoints are now at the budget: the next insert must refuse.
	if _, err := g.AddEdgeChecked(0, 2, KindRandom, 3); !errors.Is(err, ErrDegreeLimit) {
		t.Fatalf("insert past budget: err %v, want ErrDegreeLimit", err)
	}
	// Unbounded budget (0) admits it.
	if _, err := g.AddEdgeChecked(0, 2, KindRandom, 0); err != nil {
		t.Fatalf("unbounded insert: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
}
