package routing

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/topology"
)

func torus8x8(t *testing.T) *topology.Torus {
	t.Helper()
	tor, err := topology.Torus2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	return tor
}

func TestDistanceTable(t *testing.T) {
	tor := torus8x8(t)
	dt := NewDistanceTable(tor.Graph())
	if err := dt.Validate(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < tor.N(); s += 5 {
		for d := 0; d < tor.N(); d += 3 {
			if int(dt.D(s, d)) != tor.HopDist(s, d) {
				t.Fatalf("D(%d,%d)=%d, want %d", s, d, dt.D(s, d), tor.HopDist(s, d))
			}
		}
	}
}

func TestDistanceTableUnreachable(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, graph.KindRing)
	dt := NewDistanceTable(g)
	if dt.D(0, 3) != graph.Unreachable {
		t.Fatalf("D(0,3)=%d", dt.D(0, 3))
	}
}

func TestMinimalNextHops(t *testing.T) {
	tor := torus8x8(t)
	dt := NewDistanceTable(tor.Graph())
	// From (0,0) to (2,2): both +row and +col neighbors are minimal.
	s, d := tor.ID([]int{0, 0}), tor.ID([]int{2, 2})
	hops := dt.MinimalNextHops(tor.Graph(), s, d, nil)
	if len(hops) != 2 {
		t.Fatalf("minimal next hops %v, want 2 candidates", hops)
	}
	for _, h := range hops {
		if dt.D(int(h), d) != dt.D(s, d)-1 {
			t.Fatalf("next hop %d not minimal", h)
		}
	}
	if got := dt.MinimalNextHops(tor.Graph(), d, d, nil); len(got) != 0 {
		t.Fatalf("self next hops %v", got)
	}
}

func TestUpDownPathsValid(t *testing.T) {
	for _, build := range []struct {
		name string
		g    *graph.Graph
	}{
		{"torus8x8", torus8x8(t).Graph()},
		{"dln-2-2", mustDLN22(t, 64)},
		{"dsn", mustDSN(t, 64).Graph()},
	} {
		ud, err := NewUpDown(build.g, 0)
		if err != nil {
			t.Fatalf("%s: %v", build.name, err)
		}
		n := build.g.N()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				path, err := ud.Path(s, d)
				if err != nil {
					t.Fatalf("%s: path(%d,%d): %v", build.name, s, d, err)
				}
				if path[0] != s || path[len(path)-1] != d {
					t.Fatalf("%s: path endpoints %v", build.name, path)
				}
				descended := false
				for i := 0; i+1 < len(path); i++ {
					if !build.g.HasEdge(path[i], path[i+1]) {
						t.Fatalf("%s: path %v rides missing edge", build.name, path)
					}
					down := !ud.IsUp(path[i], path[i+1])
					if descended && !down {
						t.Fatalf("%s: path %v goes up after down at hop %d", build.name, path, i)
					}
					descended = descended || down
				}
			}
		}
	}
}

func mustDLN22(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := topology.DLNRandom(n, 2, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustDSN(t *testing.T, n int) *core.DSN {
	t.Helper()
	d, err := core.New(n, core.CeilLog2(n)-1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestUpDownShortestLegal(t *testing.T) {
	// On a tree every path is legal, so up*/down* must match BFS exactly.
	g := graph.New(7)
	// Balanced binary tree rooted at 0.
	g.AddEdge(0, 1, graph.KindRing)
	g.AddEdge(0, 2, graph.KindRing)
	g.AddEdge(1, 3, graph.KindRing)
	g.AddEdge(1, 4, graph.KindRing)
	g.AddEdge(2, 5, graph.KindRing)
	g.AddEdge(2, 6, graph.KindRing)
	ud, err := NewUpDown(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 7; s++ {
		dist := g.BFS(s)
		for d := 0; d < 7; d++ {
			l, err := ud.PathLen(s, d)
			if err != nil {
				t.Fatal(err)
			}
			if int32(l) != dist[d] {
				t.Fatalf("path(%d,%d) length %d, BFS %d", s, d, l, dist[d])
			}
		}
	}
}

func TestUpDownAtLeastShortest(t *testing.T) {
	g := mustDLN22(t, 128)
	ud, err := NewUpDown(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	dt := NewDistanceTable(g)
	for s := 0; s < 128; s += 3 {
		for d := 0; d < 128; d += 5 {
			l, err := ud.PathLen(s, d)
			if err != nil {
				t.Fatal(err)
			}
			if int32(l) < dt.D(s, d) {
				t.Fatalf("up*/down* path %d->%d shorter than shortest path", s, d)
			}
		}
	}
}

func TestUpDownValidation(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, graph.KindRing)
	if _, err := NewUpDown(g, 0); err == nil {
		t.Fatal("disconnected graph accepted")
	}
	if _, err := NewUpDown(g, 9); err == nil {
		t.Fatal("bad root accepted")
	}
}

// up*/down* is deadlock-free: its CDG over all routes must be acyclic.
func TestUpDownCDGAcyclic(t *testing.T) {
	for _, n := range []int{32, 64} {
		g := mustDLN22(t, n)
		ud, err := NewUpDown(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		cdg := NewCDG(g, 1)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				path, err := ud.Path(s, d)
				if err != nil {
					t.Fatal(err)
				}
				hops := make([]ChannelHop, 0, len(path))
				for i := 0; i+1 < len(path); i++ {
					hops = append(hops, ChannelHop{From: int32(path[i]), To: int32(path[i+1])})
				}
				cdg.AddRoute(hops)
			}
		}
		if cyc := cdg.FindCycle(); cyc != nil {
			t.Fatalf("n=%d: up*/down* CDG has a cycle: %v", n, cyc)
		}
	}
}

func TestDORPaths(t *testing.T) {
	tor := torus8x8(t)
	d := NewDOR(tor)
	for s := 0; s < tor.N(); s++ {
		for dst := 0; dst < tor.N(); dst++ {
			p, err := d.Path(s, dst)
			if err != nil {
				t.Fatal(err)
			}
			if p[0] != s || p[len(p)-1] != dst {
				t.Fatalf("DOR path endpoints %v", p)
			}
			// DOR on a torus is minimal.
			if len(p)-1 != tor.HopDist(s, dst) {
				t.Fatalf("DOR path %d->%d length %d, want %d", s, dst, len(p)-1, tor.HopDist(s, dst))
			}
			for i := 0; i+1 < len(p); i++ {
				if !tor.Graph().HasEdge(p[i], p[i+1]) {
					t.Fatalf("DOR path rides missing edge")
				}
			}
		}
	}
}

func TestDORDimensionOrder(t *testing.T) {
	tor := torus8x8(t)
	d := NewDOR(tor)
	p, err := d.Path(tor.ID([]int{0, 0}), tor.ID([]int{3, 5}))
	if err != nil {
		t.Fatal(err)
	}
	// Dimension 0 must be fully corrected before dimension 1 moves.
	colMoved := false
	for i := 0; i+1 < len(p); i++ {
		a, b := tor.Coord(p[i]), tor.Coord(p[i+1])
		if a[1] != b[1] {
			colMoved = true
		}
		if a[0] != b[0] && colMoved {
			t.Fatalf("DOR moved dim 0 after dim 1: %v", p)
		}
	}
}

// completeGraph links every pair of n switches, so that any channel
// between two of them is a link.
func completeGraph(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v, graph.KindRandom)
		}
	}
	return g
}

func TestCDGCycleDetection(t *testing.T) {
	cdg := NewCDG(completeGraph(3), 1)
	// A three-channel ring of dependencies.
	a := ChannelHop{From: 0, To: 1}
	b := ChannelHop{From: 1, To: 2}
	c := ChannelHop{From: 2, To: 0}
	cdg.AddRoute([]ChannelHop{a, b})
	cdg.AddRoute([]ChannelHop{b, c})
	if cdg.FindCycle() != nil {
		t.Fatal("no cycle yet")
	}
	cdg.AddRoute([]ChannelHop{c, a})
	cyc := cdg.FindCycle()
	if cyc == nil {
		t.Fatal("cycle not found")
	}
	if cyc[0] != cyc[len(cyc)-1] {
		t.Fatalf("cycle %v not closed", cyc)
	}
	if len(cyc) != 4 {
		t.Fatalf("cycle %v, want 3 channels + closure", cyc)
	}
}

// FindCycle's documented ordering guarantee: the witness cycle is a pure
// function of the channel/dependency sets, independent of AddRoute order,
// and starts at its lexicographically least channel.
func TestCDGFindCycleDeterministic(t *testing.T) {
	// Two distinct dependency cycles plus pendant routes, inserted in
	// several different orders; every build must report the identical
	// canonical witness.
	routes := [][]ChannelHop{
		{{From: 5, To: 6}, {From: 6, To: 7}},
		{{From: 6, To: 7}, {From: 7, To: 5}},
		{{From: 7, To: 5}, {From: 5, To: 6}},
		{{From: 2, To: 3, Class: 1}, {From: 3, To: 2, Class: 1}},
		{{From: 3, To: 2, Class: 1}, {From: 2, To: 3, Class: 1}},
		{{From: 0, To: 1}, {From: 1, To: 2}},
	}
	perms := [][]int{
		{0, 1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1, 0},
		{3, 4, 0, 1, 2, 5},
		{2, 5, 1, 4, 0, 3},
	}
	var want []ChannelHop
	for pi, perm := range perms {
		cdg := NewCDG(completeGraph(8), 2)
		for _, ri := range perm {
			cdg.AddRoute(routes[ri])
		}
		cyc := cdg.FindCycle()
		if cyc == nil {
			t.Fatalf("perm %d: cycle not found", pi)
		}
		if cyc[0] != cyc[len(cyc)-1] {
			t.Fatalf("perm %d: cycle %v not closed", pi, cyc)
		}
		for _, h := range cyc[1:] {
			if hopLess(h, cyc[0]) {
				t.Fatalf("perm %d: cycle %v does not start at its least channel", pi, cyc)
			}
		}
		if pi == 0 {
			want = cyc
			continue
		}
		if len(cyc) != len(want) {
			t.Fatalf("perm %d: cycle %v, want %v", pi, cyc, want)
		}
		for i := range cyc {
			if cyc[i] != want[i] {
				t.Fatalf("perm %d: cycle %v, want %v", pi, cyc, want)
			}
		}
	}
}

// FuzzCDGLift checks Lift against the product it stands for. Each input
// seeds 64 random one-class CDGs over a small channel pool on a complete
// graph, sparse ones mostly acyclic and dense ones mostly cyclic (about
// 60% of the seed corpus), with some channels also registered on their
// own, as single-hop routes register them. Lifted to k = 2..4 classes,
// each must report the channel count, dependency count and FindCycle
// witness of the product materialized with every class pair.
func FuzzCDGLift(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(7), uint64(99))
	f.Add(uint64(2013), uint64(0xdead))
	f.Fuzz(func(t *testing.T, seed1, seed2 uint64) {
		rng := rand.New(rand.NewPCG(seed1, seed2))
		for graphs := 0; graphs < 64; graphs++ {
			switches := 2 + rng.IntN(6)
			complete := completeGraph(switches)
			pool := make([]ChannelHop, 1+rng.IntN(12))
			for i := range pool {
				u := rng.IntN(switches)
				v := (u + 1 + rng.IntN(switches-1)) % switches
				pool[i] = ChannelHop{From: int32(u), To: int32(v)}
			}
			type dep struct{ from, to ChannelHop }
			deps := make([]dep, rng.IntN(len(pool)+2))
			for i := range deps {
				deps[i] = dep{pool[rng.IntN(len(pool))], pool[rng.IntN(len(pool))]}
			}
			single := pool[:rng.IntN(len(pool)+1)]
			for k := 2; k <= 4; k++ {
				one, product := NewCDG(complete, 1), NewCDG(complete, k)
				for _, h := range single {
					one.AddChannel(h)
					for c := 0; c < k; c++ {
						h.Class = uint8(c)
						product.AddChannel(h)
					}
				}
				for _, d := range deps {
					one.AddDependency(d.from, d.to)
					for a := 0; a < k; a++ {
						for b := 0; b < k; b++ {
							from, to := d.from, d.to
							from.Class, to.Class = uint8(a), uint8(b)
							product.AddDependency(from, to)
						}
					}
				}
				one.Lift(k)
				if one.Channels() != product.Channels() || one.Dependencies() != product.Dependencies() {
					t.Fatalf("graph %d, k=%d: lifted %d channels, %d deps; product %d, %d",
						graphs, k, one.Channels(), one.Dependencies(), product.Channels(), product.Dependencies())
				}
				if got, want := one.FindCycle(), product.FindCycle(); !slices.Equal(got, want) {
					t.Fatalf("graph %d, k=%d: lifted witness %v, product witness %v", graphs, k, got, want)
				}
			}
		}
	})
}

// TestCDGPanicsOffLink pins NewCDG's contract: adding a channel that is
// not a link of its graph, or that rides a class it was not built for,
// panics; parallel edges are one link direction.
func TestCDGPanicsOffLink(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, graph.KindRing)
	g.AddEdge(0, 1, graph.KindExtra)
	for _, h := range []ChannelHop{{From: 0, To: 2}, {From: 0, To: 1, Class: 1}, {From: 3, To: 0}, {From: -1, To: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddChannel(%v) did not panic", h)
				}
			}()
			NewCDG(g, 1).AddChannel(h)
		}()
	}
	cdg := NewCDG(g, 1)
	cdg.AddRoute([]ChannelHop{{From: 0, To: 1}, {From: 1, To: 0}})
	if cdg.Channels() != 2 || cdg.Dependencies() != 1 {
		t.Errorf("%d channels, %d deps over a doubled link; want 2, 1", cdg.Channels(), cdg.Dependencies())
	}
}

// TestCDGChannelIDs pins the ID-level methods: ChannelID registers a
// channel as AddChannel does, AddDependencyID between two returned IDs
// builds the graph AddDependency builds, and a lifted CDG refuses it.
func TestCDGChannelIDs(t *testing.T) {
	g := completeGraph(3)
	hops := []ChannelHop{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}, {From: 0, To: 1}}
	byHop, byID := NewCDG(g, 1), NewCDG(g, 1)
	for i := 0; i+1 < len(hops); i++ {
		byHop.AddDependency(hops[i], hops[i+1])
		byID.AddDependencyID(byID.ChannelID(hops[i]), byID.ChannelID(hops[i+1]))
	}
	byID.ChannelID(ChannelHop{From: 1, To: 0})
	byHop.AddChannel(ChannelHop{From: 1, To: 0})
	if byID.Channels() != byHop.Channels() || byID.Dependencies() != byHop.Dependencies() ||
		!slices.Equal(byID.FindCycle(), byHop.FindCycle()) {
		t.Errorf("by ID: %d channels, %d deps, cycle %v; by hop: %d, %d, %v",
			byID.Channels(), byID.Dependencies(), byID.FindCycle(),
			byHop.Channels(), byHop.Dependencies(), byHop.FindCycle())
	}
	a, b := byID.ChannelID(hops[0]), byID.ChannelID(hops[1])
	byID.Lift(2)
	defer func() {
		if recover() == nil {
			t.Error("AddDependencyID on a lifted CDG did not panic")
		}
	}()
	byID.AddDependencyID(a, b)
}

func TestCDGClassesSeparateChannels(t *testing.T) {
	cdg := NewCDG(completeGraph(2), 2)
	// Same physical direction, different classes: no cycle.
	cdg.AddRoute([]ChannelHop{{0, 1, 0}, {1, 0, 0}})
	cdg.AddRoute([]ChannelHop{{1, 0, 1}, {0, 1, 1}})
	if cdg.FindCycle() != nil {
		t.Fatal("distinct classes must not alias")
	}
	if cdg.Channels() != 4 {
		t.Fatalf("channels=%d, want 4", cdg.Channels())
	}
	// Same classes: the 2-cycle appears.
	cdg.AddRoute([]ChannelHop{{0, 1, 0}, {1, 0, 0}})
	cdg.AddRoute([]ChannelHop{{1, 0, 0}, {0, 1, 0}})
	if cdg.FindCycle() == nil {
		t.Fatal("2-cycle not detected")
	}
}

func dsnRouteChannels(t *testing.T, d *core.DSN) *CDG {
	t.Helper()
	cdg := NewCDG(d.Graph(), core.NumClasses)
	hops := make([]ChannelHop, 0, 64)
	for s := 0; s < d.N; s++ {
		for dst := 0; dst < d.N; dst++ {
			r, err := d.Route(s, dst)
			if err != nil {
				t.Fatal(err)
			}
			hops = hops[:0]
			for _, h := range r.Hops {
				hops = append(hops, ChannelHop{From: h.From, To: h.To, Class: uint8(h.Class)})
			}
			cdg.AddRoute(hops)
		}
	}
	return cdg
}

// Theorem 3: DSN-E's extended routing (Up links in PRE-WORK, Extra links
// in the FINISH window, a dedicated finishing class) is deadlock-free.
func TestDSNEDeadlockFree(t *testing.T) {
	for _, n := range []int{36, 60, 126, 256} {
		d, err := core.NewE(n)
		if err != nil {
			if n == 256 { // p=8, 256%8==0 should work
				t.Fatal(err)
			}
			continue
		}
		cdg := dsnRouteChannels(t, d)
		if cyc := cdg.FindCycle(); cyc != nil {
			t.Fatalf("n=%d: DSN-E CDG cycle: %v", n, cyc)
		}
	}
}

// DSN-V (virtual channels instead of dedicated links) is equally
// deadlock-free, as the channel classes are identical.
func TestDSNVDeadlockFree(t *testing.T) {
	d, err := core.NewV(126)
	if err != nil {
		t.Fatal(err)
	}
	cdg := dsnRouteChannels(t, d)
	if cyc := cdg.FindCycle(); cyc != nil {
		t.Fatalf("DSN-V CDG cycle: %v", cyc)
	}
}

// The basic DSN routing without the Section V.A channels is NOT
// deadlock-free: the FINISH phase shares ring channels with the other
// phases and closes a dependency cycle around the ring. This is exactly
// the motivation for DSN-E/DSN-V.
func TestBasicDSNRoutingHasCDGCycle(t *testing.T) {
	d := mustDSN(t, 64)
	cdg := dsnRouteChannels(t, d)
	if cdg.FindCycle() == nil {
		t.Fatal("expected a CDG cycle in basic DSN routing; Section V.A would be unnecessary")
	}
}

func TestQuickUpDownTermination(t *testing.T) {
	f := func(seed uint64, rawN, rawS, rawD uint16) bool {
		n := 16 + 2*int(rawN%120)
		g, err := topology.DLNRandom(n, 2, 2, seed)
		if err != nil {
			return false
		}
		ud, err := NewUpDown(g, 0)
		if err != nil {
			return true // rare disconnected instance: nothing to check
		}
		s, d := int(rawS)%n, int(rawD)%n
		path, err := ud.Path(s, d)
		if err != nil {
			return false
		}
		return path[0] == s && path[len(path)-1] == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDORMinimal(t *testing.T) {
	f := func(rawR, rawC uint8, rawS, rawD uint16) bool {
		rows := 3 + int(rawR%8)
		cols := 3 + int(rawC%8)
		tor, err := topology.Torus2D(rows, cols)
		if err != nil {
			return false
		}
		d := NewDOR(tor)
		s, dst := int(rawS)%tor.N(), int(rawD)%tor.N()
		l, err := d.PathLen(s, dst)
		if err != nil {
			return false
		}
		return l == tor.HopDist(s, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

var benchSink int

func BenchmarkUpDownBuild64(b *testing.B) {
	g, err := topology.DLNRandom(64, 2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ud, err := NewUpDown(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = ud.Root
	}
}

func BenchmarkDistanceTable256(b *testing.B) {
	g, err := topology.DLNRandom(256, 2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		dt := NewDistanceTable(g)
		benchSink = int(dt.D(0, 255))
	}
}

// The partial build behind Surviving must tolerate a disconnected graph:
// routing inside the root's component (and inside foreign components)
// still works, while cross-component pairs report -1 next hops instead
// of failing to build.
func TestUpDownPartialDisconnected(t *testing.T) {
	// Two components: the path 0-1-2 (holding the root) and the edge 3-4.
	g := graph.New(5)
	g.AddEdge(0, 1, graph.KindRing)
	g.AddEdge(1, 2, graph.KindRing)
	g.AddEdge(3, 4, graph.KindRing)

	if _, err := NewUpDown(g, 0); err == nil {
		t.Fatal("NewUpDown accepted a disconnected graph")
	}
	_, u := Surviving(g, nil, nil)

	// Inside the root's component: shortest paths as usual.
	if p, err := u.Path(2, 0); err != nil || len(p) != 3 {
		t.Fatalf("path 2->0 = %v (%v), want length 2", p, err)
	}
	// Inside the foreign component: unreachable switches rank after all
	// reachable ones (by ID), so 3->4 is a legal down move.
	if p, err := u.Path(3, 4); err != nil || len(p) != 2 {
		t.Fatalf("path 3->4 = %v (%v), want length 1", p, err)
	}
	// Across the cut: no legal continuation in either direction.
	for _, pair := range [][2]int{{0, 3}, {2, 4}, {3, 0}, {4, 1}} {
		if next, _ := u.NextHop(pair[0], pair[1], false); next >= 0 {
			t.Fatalf("NextHop(%d, %d) = %d across a disconnected cut", pair[0], pair[1], next)
		}
		if _, err := u.Path(pair[0], pair[1]); err == nil {
			t.Fatalf("path %d->%d materialized across a disconnected cut", pair[0], pair[1])
		}
	}
}

// TestSurviving pins the shared fault rebuild: nil masks keep the
// graph and root 0, a dead edge removes exactly that edge, and a dead
// switch loses its edges and moves the root to the next live switch.
func TestSurviving(t *testing.T) {
	tor, err := topology.Torus2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := tor.Graph()
	alive, ud := Surviving(g, nil, nil)
	if alive.N() != g.N() || alive.M() != g.M() {
		t.Fatalf("nil masks changed the graph: %d/%d vs %d/%d", alive.N(), alive.M(), g.N(), g.M())
	}
	if ud.Root != 0 {
		t.Fatalf("pristine root = %d, want 0", ud.Root)
	}
	edgeDead := make([]bool, g.M())
	edgeDead[0] = true
	alive, _ = Surviving(g, edgeDead, nil)
	if alive.M() != g.M()-1 {
		t.Fatalf("one dead edge left %d edges, want %d", alive.M(), g.M()-1)
	}
	swDead := make([]bool, g.N())
	swDead[0] = true
	alive, ud = Surviving(g, nil, swDead)
	if want := g.M() - g.Degree(0); alive.M() != want {
		t.Fatalf("dead switch 0 left %d edges, want %d", alive.M(), want)
	}
	if ud.Root != 1 {
		t.Fatalf("root with switch 0 dead = %d, want 1", ud.Root)
	}
	if next, _ := ud.NextHop(1, g.N()-1, false); next < 0 || next == 0 {
		t.Fatalf("escape 1 -> %d takes hop %d", g.N()-1, next)
	}
}

// On a connected graph with no faults, Surviving's partial build must
// agree with NewUpDown.
func TestUpDownPartialMatchesFullWhenConnected(t *testing.T) {
	g, err := topology.DLNRandom(32, 2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewUpDown(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, part := Surviving(g, nil, nil)
	for s := 0; s < g.N(); s++ {
		for d := 0; d < g.N(); d++ {
			fn, fd := full.NextHop(s, d, false)
			pn, pd := part.NextHop(s, d, false)
			if fn != pn || fd != pd {
				t.Fatalf("NextHop(%d, %d) differs: full (%d,%v) partial (%d,%v)", s, d, fn, fd, pn, pd)
			}
		}
	}
}

func TestUpDownMaxHopsIsTight(t *testing.T) {
	for _, build := range []struct {
		name string
		g    *graph.Graph
	}{
		{"torus8x8", torus8x8(t).Graph()},
		{"dln-2-2", mustDLN22(t, 64)},
		{"dsn", mustDSN(t, 64).Graph()},
	} {
		ud, err := NewUpDown(build.g, 0)
		if err != nil {
			t.Fatalf("%s: %v", build.name, err)
		}
		n := build.g.N()
		worst := 0
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				l, err := ud.PathLen(s, d)
				if err != nil {
					t.Fatalf("%s: PathLen(%d,%d): %v", build.name, s, d, err)
				}
				if l > ud.MaxHops() {
					t.Fatalf("%s: path %d->%d takes %d hops, MaxHops claims %d",
						build.name, s, d, l, ud.MaxHops())
				}
				if l > worst {
					worst = l
				}
			}
		}
		// Tight, not just sound: some pair attains the bound.
		if worst != ud.MaxHops() {
			t.Fatalf("%s: MaxHops %d but the longest route is %d hops",
				build.name, ud.MaxHops(), worst)
		}
	}
}
