package topology

import (
	"testing"
	"testing/quick"

	"dsnet/internal/graph"
)

func TestRing(t *testing.T) {
	g, err := Ring(10)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 10 || g.M() != 10 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if g.MaxDegree() != 2 || g.MinDegree() != 2 {
		t.Fatal("ring should be 2-regular")
	}
	if !g.Connected() {
		t.Fatal("ring disconnected")
	}
	if _, err := Ring(2); err == nil {
		t.Fatal("Ring(2) accepted")
	}
}

func TestNearSquareDims(t *testing.T) {
	cases := []struct{ n, r, c int }{
		{64, 8, 8}, {128, 8, 16}, {256, 16, 16}, {512, 16, 32},
		{1024, 32, 32}, {2048, 32, 64}, {12, 3, 4}, {7, 1, 7},
	}
	for _, cse := range cases {
		r, c, err := NearSquareDims(cse.n)
		if err != nil {
			t.Fatal(err)
		}
		if r != cse.r || c != cse.c {
			t.Errorf("NearSquareDims(%d) = (%d,%d), want (%d,%d)", cse.n, r, c, cse.r, cse.c)
		}
		if r*c != cse.n {
			t.Errorf("NearSquareDims(%d): %d*%d != n", cse.n, r, c)
		}
	}
	if _, _, err := NearSquareDims(0); err == nil {
		t.Fatal("NearSquareDims(0) accepted")
	}
}

func TestDLN(t *testing.T) {
	// DLN-2 is just a ring.
	g, err := DLN(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 64 {
		t.Fatalf("DLN-2 edges %d, want 64", g.M())
	}
	// DLN-4 adds spans n/2 and n/4.
	g, err = DLN(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 32) || !g.HasEdge(0, 16) || !g.HasEdge(5, 37) {
		t.Fatal("DLN-4 missing loop shortcuts")
	}
	// Ring (2) + k=1 matching (1) + k=2 out/in (2) = 5.
	if g.MaxDegree() != 5 || g.MinDegree() != 5 {
		t.Fatalf("DLN-4 degrees [%d,%d], want exactly 5", g.MinDegree(), g.MaxDegree())
	}
	// DLN-log n has logarithmic diameter.
	g, err = DLN(256, 10) // ring + spans 128,64,...,2 (span 1 collapses)
	if err != nil {
		t.Fatal(err)
	}
	m := g.AllPairs()
	if m.Diameter > 10 {
		t.Fatalf("DLN-log n diameter %d, want <= 10", m.Diameter)
	}
	if _, err := DLN(2, 2); err == nil {
		t.Fatal("tiny DLN accepted")
	}
	if _, err := DLN(64, 1); err == nil {
		t.Fatal("DLN-1 accepted")
	}
}

func TestDLNRandomExactDegree(t *testing.T) {
	// The paper's RANDOM topology: DLN-2-2 has exact degree 4.
	for _, n := range []int{64, 256, 1024} {
		g, err := DLNRandom(n, 2, 2, 42)
		if err != nil {
			t.Fatal(err)
		}
		if g.MinDegree() != 4 || g.MaxDegree() != 4 {
			t.Fatalf("n=%d: DLN-2-2 degrees [%d,%d], want exactly 4", n, g.MinDegree(), g.MaxDegree())
		}
		if !g.Connected() {
			t.Fatalf("n=%d: DLN-2-2 disconnected", n)
		}
		if got := len(g.EdgesByKind(graph.KindRandom)); got != n {
			t.Fatalf("n=%d: %d random edges, want n", n, got)
		}
	}
	if _, err := DLNRandom(65, 2, 2, 1); err == nil {
		t.Fatal("odd n accepted")
	}
}

func TestDLNRandomDeterministic(t *testing.T) {
	a, err := DLNRandom(128, 2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DLNRandom(128, 2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.M() != b.M() {
		t.Fatal("same seed produced different sizes")
	}
	for i := 0; i < a.M(); i++ {
		if a.Edge(i) != b.Edge(i) {
			t.Fatalf("same seed differs at edge %d", i)
		}
	}
	c, err := DLNRandom(128, 2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < a.M() && i < c.M(); i++ {
		if a.Edge(i) != c.Edge(i) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestDLNRandomLowDiameter(t *testing.T) {
	g, err := DLNRandom(1024, 2, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := g.AllPairs()
	// Random shortcut topologies have O(log n) diameter; 1024 nodes
	// should be far under the ring's 512.
	if m.Diameter > 12 {
		t.Fatalf("DLN-2-2 diameter %d suspiciously high", m.Diameter)
	}
}

func TestRandomRegular(t *testing.T) {
	g, err := RandomRegular(100, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if g.MinDegree() != 4 || g.MaxDegree() != 4 {
		t.Fatalf("degrees [%d,%d]", g.MinDegree(), g.MaxDegree())
	}
	if _, err := RandomRegular(99, 4, 9); err == nil {
		t.Fatal("odd n accepted")
	}
	if _, err := RandomRegular(10, 0, 9); err == nil {
		t.Fatal("d=0 accepted")
	}
}

func TestTorus2D(t *testing.T) {
	tor, err := Torus2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	g := tor.Graph()
	if g.N() != 64 || g.M() != 128 {
		t.Fatalf("N=%d M=%d, want 64,128", g.N(), g.M())
	}
	if g.MinDegree() != 4 || g.MaxDegree() != 4 {
		t.Fatal("8x8 torus should be 4-regular")
	}
	m := g.AllPairs()
	if m.Diameter != 8 { // 4 + 4
		t.Fatalf("diameter %d, want 8", m.Diameter)
	}
	// k-ary 2-cube ASPL: for 8x8 torus, mean per-dim distance is 2, so 4.
	if m.ASPL < 3.9 || m.ASPL > 4.2 {
		t.Fatalf("ASPL %.3f, want about 4.06", m.ASPL)
	}
}

func TestTorusCoordRoundTrip(t *testing.T) {
	tor, err := Torus3D(4, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < tor.N(); id++ {
		c := tor.Coord(id)
		if got := tor.ID(c); got != id {
			t.Fatalf("round trip %d -> %v -> %d", id, c, got)
		}
		for dim, v := range c {
			if got := tor.CoordOf(id, dim); got != v {
				t.Fatalf("CoordOf(%d, %d) = %d, want %d", id, dim, got, v)
			}
			for w := 0; w < tor.Dims[dim]; w++ {
				moved := append([]int(nil), c...)
				moved[dim] = w
				if got, want := tor.WithCoord(id, dim, w), tor.ID(moved); got != want {
					t.Fatalf("WithCoord(%d, %d, %d) = %d, want %d", id, dim, w, got, want)
				}
			}
		}
	}
	if tor.Graph().MinDegree() != 6 || tor.Graph().MaxDegree() != 6 {
		t.Fatal("3-D torus should be 6-regular")
	}
}

func TestTorusDimDist(t *testing.T) {
	tor, err := Torus2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ a, b, want int }{
		{0, 3, 3}, {0, 4, 4}, {0, 5, -3}, {0, 7, -1}, {6, 1, 3}, {2, 2, 0},
	}
	for _, c := range cases {
		if got := tor.DimDist(c.a, c.b, 0); got != c.want {
			t.Errorf("DimDist(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTorusHopDistMatchesBFS(t *testing.T) {
	tor, err := Torus2D(6, 9)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < tor.N(); s += 7 {
		dist := tor.Graph().BFS(s)
		for v := 0; v < tor.N(); v++ {
			if int(dist[v]) != tor.HopDist(s, v) {
				t.Fatalf("HopDist(%d,%d)=%d, BFS says %d", s, v, tor.HopDist(s, v), dist[v])
			}
		}
	}
}

func TestMesh2D(t *testing.T) {
	m, err := Mesh2D(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m.Graph().M() != 4*4+3*5 { // horizontal + vertical
		t.Fatalf("mesh edges %d", m.Graph().M())
	}
	if m.Graph().MaxDegree() != 4 || m.Graph().MinDegree() != 2 {
		t.Fatal("mesh corner/interior degrees wrong")
	}
	met := m.Graph().AllPairs()
	if met.Diameter != 3+4 {
		t.Fatalf("mesh diameter %d, want 7", met.Diameter)
	}
}

func TestTorusExtentTwo(t *testing.T) {
	// Extent-2 dimensions must not create parallel wrap edges.
	tor, err := NewTorus([]int{2, 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := tor.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < tor.N(); v++ {
		if d := tor.Graph().Degree(v); d != 3 {
			t.Fatalf("2x4 torus node %d degree %d, want 3", v, d)
		}
	}
}

func TestTorusValidation(t *testing.T) {
	if _, err := NewTorus(nil, true); err == nil {
		t.Fatal("empty dims accepted")
	}
	if _, err := NewTorus([]int{1, 8}, true); err == nil {
		t.Fatal("extent 1 accepted")
	}
	if _, err := Torus2DFor(13); err == nil {
		t.Fatal("prime switch count accepted for 2-D torus")
	}
	tor, err := Torus2DFor(2048)
	if err != nil {
		t.Fatal(err)
	}
	if tor.Dims[0] != 32 || tor.Dims[1] != 64 {
		t.Fatalf("2048-switch torus dims %v", tor.Dims)
	}
}

func TestKleinberg(t *testing.T) {
	k, err := NewKleinberg(16, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	if k.N() != 256 {
		t.Fatalf("N=%d", k.N())
	}
	if !k.Graph().Connected() {
		t.Fatal("Kleinberg grid disconnected")
	}
	grid := len(k.Graph().EdgesByKind(graph.KindGrid))
	if grid != 2*16*15 {
		t.Fatalf("grid edges %d, want 480", grid)
	}
	rnd := len(k.Graph().EdgesByKind(graph.KindRandom))
	if rnd == 0 || rnd > 256 {
		t.Fatalf("random edges %d", rnd)
	}
	if _, err := NewKleinberg(1, 1, 0); err == nil {
		t.Fatal("side=1 accepted")
	}
	if _, err := NewKleinberg(8, -1, 0); err == nil {
		t.Fatal("q=-1 accepted")
	}
}

func TestKleinbergShortcutBias(t *testing.T) {
	// Inverse-square contacts must prefer nearby targets: the median
	// shortcut span should be well below half the max lattice distance.
	k, err := NewKleinberg(24, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	spans := []int{}
	for _, ei := range k.Graph().EdgesByKind(graph.KindRandom) {
		e := k.Graph().Edge(ei)
		spans = append(spans, k.LatticeDist(int(e.U), int(e.V)))
	}
	if len(spans) == 0 {
		t.Fatal("no shortcuts")
	}
	short := 0
	maxD := 2 * (24 - 1)
	for _, s := range spans {
		if s <= maxD/4 {
			short++
		}
	}
	if float64(short) < 0.5*float64(len(spans)) {
		t.Fatalf("only %d/%d shortcuts are short: inverse-square bias missing", short, len(spans))
	}
}

func TestKleinbergGreedyRoute(t *testing.T) {
	k, err := NewKleinberg(12, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < k.N(); s += 11 {
		for dst := 0; dst < k.N(); dst += 13 {
			path, err := k.GreedyRoute(s, dst)
			if err != nil {
				t.Fatal(err)
			}
			if path[0] != s || path[len(path)-1] != dst {
				t.Fatalf("greedy path endpoints %v", path)
			}
			for i := 0; i+1 < len(path); i++ {
				if !k.Graph().HasEdge(path[i], path[i+1]) {
					t.Fatalf("greedy path rides missing edge")
				}
				// Greedy progress: lattice distance strictly decreases.
				if k.LatticeDist(path[i+1], dst) >= k.LatticeDist(path[i], dst) {
					t.Fatalf("greedy step did not progress")
				}
			}
		}
	}
}

func TestCountAtDistanceConsistent(t *testing.T) {
	k, err := NewKleinberg(9, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Sum over all distances must count every other node exactly once.
	for u := 0; u < k.N(); u++ {
		total := 0
		for d := 1; d <= 2*(k.Side-1); d++ {
			total += k.countAtDistance(u/k.Side, u%k.Side, d)
		}
		if total != k.N()-1 {
			t.Fatalf("node %d: counted %d others, want %d", u, total, k.N()-1)
		}
	}
}

func TestHypercube(t *testing.T) {
	g, err := Hypercube(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 32 || g.M() != 5*32/2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	m := g.AllPairs()
	if m.Diameter != 5 {
		t.Fatalf("diameter %d, want 5", m.Diameter)
	}
	if _, err := Hypercube(0); err == nil {
		t.Fatal("dim 0 accepted")
	}
}

func TestCCC(t *testing.T) {
	g, err := CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 24 {
		t.Fatalf("N=%d, want 24", g.N())
	}
	if g.MinDegree() != 3 || g.MaxDegree() != 3 {
		t.Fatal("CCC should be 3-regular")
	}
	if !g.Connected() {
		t.Fatal("CCC disconnected")
	}
	if _, err := CCC(2); err == nil {
		t.Fatal("CCC(2) accepted")
	}
}

func TestDeBruijn(t *testing.T) {
	g, err := DeBruijn(6)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 64 {
		t.Fatalf("N=%d", g.N())
	}
	if !g.Connected() {
		t.Fatal("De Bruijn disconnected")
	}
	if g.MaxDegree() > 4 {
		t.Fatalf("max degree %d > 4", g.MaxDegree())
	}
	// Diameter of B(2,m) is m.
	m := g.AllPairs()
	if m.Diameter > 6 {
		t.Fatalf("diameter %d > 6", m.Diameter)
	}
	if _, err := DeBruijn(1); err == nil {
		t.Fatal("order 1 accepted")
	}
}

func TestQuickTorusSymmetry(t *testing.T) {
	f := func(rawR, rawC uint8, rawA, rawB uint16) bool {
		rows := 3 + int(rawR%10)
		cols := 3 + int(rawC%10)
		tor, err := Torus2D(rows, cols)
		if err != nil {
			return false
		}
		a := int(rawA) % tor.N()
		b := int(rawB) % tor.N()
		return tor.HopDist(a, b) == tor.HopDist(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDLNRandomRegular(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := 32 + 2*int(rawN%200)
		g, err := DLNRandom(n, 2, 2, seed)
		if err != nil {
			return false
		}
		return g.MinDegree() == 4 && g.MaxDegree() == 4 && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKautz(t *testing.T) {
	g, err := Kautz(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 24 { // 3 * 2^3
		t.Fatalf("N=%d, want 24", g.N())
	}
	if !g.Connected() {
		t.Fatal("Kautz disconnected")
	}
	if g.MaxDegree() > 4 {
		t.Fatalf("max degree %d > 4", g.MaxDegree())
	}
	// Diameter of K(2, m) is m.
	m := g.AllPairs()
	if m.Diameter > 4 {
		t.Fatalf("diameter %d > 4", m.Diameter)
	}
	if _, err := Kautz(1); err == nil {
		t.Fatal("order 1 accepted")
	}
}

// Section III of the paper: "Kautz has 11-and-4" for 3,072 vertices.
func TestKautzPaperCitation(t *testing.T) {
	if testing.Short() {
		t.Skip("3072-vertex APSP in -short mode")
	}
	g, err := Kautz(11)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3072 {
		t.Fatalf("N=%d, want 3072", g.N())
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("degree %d, want 4", g.MaxDegree())
	}
	m := g.AllPairs()
	if m.Diameter != 11 {
		t.Fatalf("diameter %d, want 11", m.Diameter)
	}
}

func TestDragonfly(t *testing.T) {
	d, err := NewDragonfly(4, 2) // groups = 9, n = 36
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	if g.N() != 36 || d.G != 9 {
		t.Fatalf("N=%d G=%d", g.N(), d.G)
	}
	// Degree = (a-1) intra + h global.
	if g.MinDegree() != 5 || g.MaxDegree() != 5 {
		t.Fatalf("degrees [%d,%d], want exactly 5", g.MinDegree(), g.MaxDegree())
	}
	if !g.Connected() {
		t.Fatal("dragonfly disconnected")
	}
	m := g.AllPairs()
	if m.Diameter > 3 {
		t.Fatalf("dragonfly diameter %d, want <= 3", m.Diameter)
	}
	// Exactly one global link between every pair of groups.
	globals := g.EdgesByKind(graph.KindRandom)
	if len(globals) != d.G*(d.G-1)/2 {
		t.Fatalf("%d global links, want %d", len(globals), d.G*(d.G-1)/2)
	}
	pairSeen := map[[2]int]bool{}
	for _, ei := range globals {
		e := g.Edge(ei)
		ga, gb := int(e.U)/d.A, int(e.V)/d.A
		if ga == gb {
			t.Fatal("global link within a group")
		}
		if ga > gb {
			ga, gb = gb, ga
		}
		if pairSeen[[2]int{ga, gb}] {
			t.Fatalf("duplicate global link between groups %d,%d", ga, gb)
		}
		pairSeen[[2]int{ga, gb}] = true
	}
	if _, err := NewDragonfly(1, 1); err == nil {
		t.Fatal("tiny dragonfly accepted")
	}
}

func TestFlattenedButterfly(t *testing.T) {
	g, err := FlattenedButterfly(8)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 64 {
		t.Fatalf("N=%d", g.N())
	}
	// Degree 2(k-1), diameter 2.
	if g.MinDegree() != 14 || g.MaxDegree() != 14 {
		t.Fatalf("degrees [%d,%d], want 14", g.MinDegree(), g.MaxDegree())
	}
	m := g.AllPairs()
	if m.Diameter != 2 {
		t.Fatalf("diameter %d, want 2", m.Diameter)
	}
	if _, err := FlattenedButterfly(1); err == nil {
		t.Fatal("k=1 accepted")
	}
}

// The paper's low- vs high-radix contrast: at comparable sizes the
// flattened butterfly buys diameter 2 with degree 14, while DSN holds
// degree <= 5 — and pays for it with only a logarithmic diameter.
func TestHighRadixContrast(t *testing.T) {
	fb, err := FlattenedButterfly(8) // 64 switches, degree 14
	if err != nil {
		t.Fatal(err)
	}
	if fb.MaxDegree() <= 5 {
		t.Fatal("flattened butterfly should be high-radix")
	}
}
