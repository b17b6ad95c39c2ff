package verify

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"dsnet/internal/graph"
	"dsnet/internal/routing"
	"dsnet/internal/topology"
)

// walkUpDownPerPair is the oracle of walkUpDown: it routes every
// ordered pair through routing.UpDown.AppendPath and checks and records
// each route whole, so it re-walks every suffix that routes toward one
// destination share.
func walkUpDownPerPair(g *graph.Graph, ud *routing.UpDown) *updownWalk {
	n := g.N()
	comp, _ := g.Components()
	w := &updownWalk{cdg: routing.NewCDG(g, 1)}
	violate := func(err error) {
		if w.totality == nil {
			w.totality = err
		}
	}
	path, hops := make([]int, 0, n), make([]routing.ChannelHop, 0, n)
	var err error
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t {
				continue
			}
			if comp[s] != comp[t] {
				if next, _ := ud.NextHop(s, t, false); next >= 0 {
					violate(fmt.Errorf("verify: up*/down* offers hop %d for disconnected pair %d->%d", next, s, t))
				}
				continue
			}
			if path, err = ud.AppendPath(path[:0], s, t); err != nil {
				if comp[s] == comp[ud.Root] {
					violate(fmt.Errorf("verify: up*/down* %d->%d unrouted inside the root component: %w", s, t, err))
					w.err = fmt.Errorf("verify: up*/down* %d->%d: %w", s, t, err)
					return w
				}
				if next, _ := ud.NextHop(s, t, false); next >= 0 {
					violate(fmt.Errorf("verify: up*/down* %d->%d has no path yet offers hop %d", s, t, next))
				}
				continue
			}
			if path[0] != s || path[len(path)-1] != t {
				violate(fmt.Errorf("verify: up*/down* %d->%d endpoints %v", s, t, path))
			}
			hops = hops[:0]
			descended, links := false, true
			for i := 0; i+1 < len(path); i++ {
				u, v := path[i], path[i+1]
				if u == v {
					violate(fmt.Errorf("verify: up*/down* %d->%d self-loop at %d", s, t, u))
					links = false
				} else if !g.HasEdge(u, v) {
					violate(fmt.Errorf("verify: up*/down* %d->%d hop %d->%d rides no edge", s, t, u, v))
					links = false
				}
				down := !ud.IsUp(u, v)
				if descended && !down {
					violate(fmt.Errorf("verify: up*/down* %d->%d goes up after down at hop %d", s, t, i))
				}
				descended = descended || down
				hops = append(hops, routing.ChannelHop{From: int32(u), To: int32(v)})
			}
			if links {
				w.cdg.AddRoute(hops)
			}
		}
	}
	return w
}

// sameWalk returns the first difference between walkUpDown and its
// per-pair oracle on ud: the error and totality texts and the
// one-class CDG's channel and dependency counts and cycle witness.
func sameWalk(g *graph.Graph, ud *routing.UpDown) error {
	got, want := walkUpDown(g, ud), walkUpDownPerPair(g, ud)
	text := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	switch {
	case text(got.err) != text(want.err):
		return fmt.Errorf("error %q, oracle %q", text(got.err), text(want.err))
	case text(got.totality) != text(want.totality):
		return fmt.Errorf("totality %q, oracle %q", text(got.totality), text(want.totality))
	case got.err != nil:
		return nil
	case got.cdg.Channels() != want.cdg.Channels() || got.cdg.Dependencies() != want.cdg.Dependencies():
		return fmt.Errorf("%d channels and %d dependencies, oracle %d and %d",
			got.cdg.Channels(), got.cdg.Dependencies(), want.cdg.Channels(), want.cdg.Dependencies())
	}
	if a, b := fmt.Sprint(got.cdg.FindCycle()), fmt.Sprint(want.cdg.FindCycle()); a != b {
		return fmt.Errorf("cycle %s, oracle %s", a, b)
	}
	return nil
}

// TestWalkUpDownMatchesPerPair compares walkUpDown with the per-pair
// walk on random DLN graphs degraded by random edge and switch masks.
// Dead switches and cut edges leave partial builds whose off-root
// components hold pairs with no up*/down*-legal route.
func TestWalkUpDownMatchesPerPair(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 1))
	walks := 0
	for walks < 400 {
		n := 6 + rng.IntN(59)
		g, err := topology.DLNRandom(n, 1+rng.IntN(3), 1+rng.IntN(3), rng.Uint64())
		if err != nil {
			continue
		}
		pEdge, pSw := rng.Float64()*0.3, rng.Float64()*0.15
		edgeDead, swDead := make([]bool, g.M()), make([]bool, n)
		for e := range edgeDead {
			edgeDead[e] = rng.Float64() < pEdge
		}
		for v := range swDead {
			swDead[v] = rng.Float64() < pSw
		}
		alive, ud := routing.Surviving(g, edgeDead, swDead)
		if err := sameWalk(alive, ud); err != nil {
			t.Fatalf("DLN n=%d, %d dead edges, %d dead switches: %v", n, countTrue(edgeDead), countTrue(swDead), err)
		}
		walks++
	}
}
