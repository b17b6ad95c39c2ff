package verify

import (
	"fmt"

	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/routing"
)

// The channel identity used throughout the engine is
// routing.ChannelHop{From, To, Class}: a directed traversal of a link on
// a channel class (a Section V.A LinkClass or a simulator VC).
//
// The VC views work at link granularity: DSN-E's dedicated Up/Extra
// wires are merged into their link direction. That is sound — a cycle in
// the finer wire-level CDG projects onto a closed walk (hence a cycle)
// in the link-level CDG, so link-level acyclicity certifies the
// pinned-edge simulator too, while remaining valid for DSN-V where the
// same classes ride virtual channels over shared wires.

// addCandidateHops records one route given as per-hop candidate channel
// sets: the dependency cross product between consecutive hops is added,
// which is the conservative CDG for an adaptive router that may hold any
// candidate of hop i-1 while requesting any candidate of hop i.
func addCandidateHops(cdg *routing.CDG, hops [][]routing.ChannelHop) {
	for i, opts := range hops {
		if i == 0 {
			for _, h := range opts {
				cdg.AddChannel(h)
			}
			continue
		}
		for _, a := range hops[i-1] {
			for _, b := range opts {
				cdg.AddDependency(a, b)
			}
		}
	}
}

// UpDownChannels builds the CDG of deterministic up*/down* routing with
// packets spread across vcs virtual channels of each hop (vcs = 1 yields
// the pure escape network of the Duato-style adaptive router). Pairs
// that route nothing occupy no channels and are skipped: pairs
// disconnected in g, and — on fault-degraded partial builds — connected
// pairs outside the root's component with no up*/down*-legal path
// (those degrade to timeout-drops in the simulator). An unroutable pair
// inside the root component is still an error.
func UpDownChannels(g *graph.Graph, ud *routing.UpDown, vcs int) (*routing.CDG, error) {
	if vcs < 1 {
		return nil, fmt.Errorf("verify: up*/down* needs >= 1 VC, got %d", vcs)
	}
	cdg := routing.NewCDG()
	n := g.N()
	rootDist := g.BFS(ud.Root)
	var hops [][]routing.ChannelHop
	for s := 0; s < n; s++ {
		dist := g.BFS(s)
		for t := 0; t < n; t++ {
			if s == t || dist[t] == graph.Unreachable {
				continue
			}
			path, err := ud.Path(s, t)
			if err != nil {
				if rootDist[s] != graph.Unreachable && rootDist[t] != graph.Unreachable {
					return nil, fmt.Errorf("verify: up*/down* %d->%d: %w", s, t, err)
				}
				continue
			}
			hops = hops[:0]
			for i := 0; i+1 < len(path); i++ {
				opts := make([]routing.ChannelHop, vcs)
				for vc := 0; vc < vcs; vc++ {
					opts[vc] = routing.ChannelHop{From: int32(path[i]), To: int32(path[i+1]), Class: uint8(vc)}
				}
				hops = append(hops, opts)
			}
			addCandidateHops(cdg, hops)
		}
	}
	return cdg, nil
}

// DSNClassChannels builds the CDG of the DSN custom routing at the
// paper's channel-class granularity (Section V.A): one channel per
// (link direction, LinkClass). route is d.Route or d.RouteShortAware.
func DSNClassChannels(d *core.DSN, route func(s, t int) (*core.Route, error)) (*routing.CDG, error) {
	cdg := routing.NewCDG()
	var hops []routing.ChannelHop
	for s := 0; s < d.N; s++ {
		for t := 0; t < d.N; t++ {
			if s == t {
				continue
			}
			r, err := route(s, t)
			if err != nil {
				return nil, err
			}
			hops = hops[:0]
			for _, h := range r.Hops {
				hops = append(hops, routing.ChannelHop{From: h.From, To: h.To, Class: uint8(h.Class)})
			}
			cdg.AddRoute(hops)
		}
	}
	return cdg, nil
}
