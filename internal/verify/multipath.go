package verify

import (
	"fmt"

	"dsnet/internal/graph"
	"dsnet/internal/multipath"
	"dsnet/internal/routing"
)

// MultipathTotality verifies a multipath routing table end to end:
// structural validity (every path runs src→dst over real edges, is
// loopless and canonically ordered, every connected pair is covered —
// multipath.Table.Validate), plus the two properties the simulator's
// router additionally leans on: the paths of each pair are mutually
// edge-disjoint (a link fault disables at most one path per pair), and
// no set exceeds the table's k or the RtState path-index budget.
func MultipathTotality(g *graph.Graph, tab *multipath.Table) error {
	if err := tab.Validate(g); err != nil {
		return err
	}
	if tab.K < 1 || tab.K > multipath.MaxK {
		return fmt.Errorf("verify: multipath table k=%d outside [1,%d]", tab.K, multipath.MaxK)
	}
	for s := 0; s < tab.N; s++ {
		for d := 0; d < tab.N; d++ {
			ps := tab.Set(s, d)
			if len(ps.Paths) > tab.K {
				return fmt.Errorf("verify: pair %d->%d has %d paths, table k=%d", s, d, len(ps.Paths), tab.K)
			}
			used := make(map[int64]bool)
			for pi, p := range ps.Paths {
				for i := 0; i+1 < len(p); i++ {
					u, v := p[i], p[i+1]
					if u > v {
						u, v = v, u
					}
					key := int64(u)<<32 | int64(uint32(v))
					if used[key] {
						return fmt.Errorf("verify: pair %d->%d path %d reuses hop %d-%d", s, d, pi, u, v)
					}
					used[key] = true
				}
			}
		}
	}
	return nil
}

// CheckMultipathTotality wraps MultipathTotality into a CheckResult.
func CheckMultipathTotality(g *graph.Graph, tab *multipath.Table) CheckResult {
	if err := MultipathTotality(g, tab); err != nil {
		return CheckResult{Name: "totality:multipath-table", OK: false, Detail: err.Error()}
	}
	return CheckResult{
		Name:   "totality:multipath-table",
		OK:     true,
		Detail: fmt.Sprintf("all connected pairs covered, per-pair paths edge-disjoint, k=%d within RtState budget", tab.K),
	}
}

// CertifyDegradedMultipath certifies the multipath scheme on a
// fault-degraded fabric with the derivations multipath.Router.UpdateFaults
// runs: the up*/down* escape rebuilt on the surviving subgraph
// (routing.Surviving), enumerated at vcs channel classes, and each
// pair's sprayed paths masked to the survivors (PathSet.AnyLive asks
// whether one survives). Deadlock freedom only needs the rebuilt escape
// to stay acyclic — pairs whose sprayed paths all die divert
// permanently onto it. The faulted:multipath-live check records the
// live/diverted/unreachable pair split for the report: a pair without a
// live sprayed path is diverted when the escape routes it, and
// disconnected otherwise, which covers both a pair the faults cut apart
// and a pair of an off-root component with no up*/down*-legal route
// (the escape offers its packets no hop). Diversion and disconnection
// are legal under faults, so the check always holds.
func CertifyDegradedMultipath(g *graph.Graph, tab *multipath.Table, edgeDead, swDead []bool, vcs int) Certificate {
	cert := Certificate{
		Combo:    "degraded/multipath",
		Topology: fmt.Sprintf("surviving subgraph (%d dead edges, %d dead switches)", countTrue(edgeDead), countTrue(swDead)),
		Routing:  fmt.Sprintf("multipath-spray k=%d + updown-partial escape", tab.K),
		VCs:      vcs,
		Doc:      "escape re-certified on survivors; sprayed paths masked to live ones",
	}
	alive, ud := routing.Surviving(g, edgeDead, swDead)
	w, err := walkEscape(alive, ud, vcs)
	if err != nil {
		finish(&cert, nil, err)
		return cert
	}
	live, diverted, unreachable := 0, 0, 0
	for s := 0; s < tab.N; s++ {
		if swAt(swDead, s) {
			continue
		}
		for d := 0; d < tab.N; d++ {
			if s == d || swAt(swDead, d) {
				continue
			}
			switch next, _ := ud.NextHop(s, d, false); {
			case tab.Set(s, d).AnyLive(g, edgeDead, swDead):
				live++
			case next >= 0:
				diverted++ // all sprayed paths dead: rides the escape
			default:
				unreachable++ // no escape route: the transport timeout drains it
			}
		}
	}
	cert.Checks = append(cert.Checks,
		w.check(),
		CheckResult{
			Name: "faulted:multipath-live",
			OK:   true, // diversion and disconnection are legal under faults
			Detail: fmt.Sprintf("%d pairs keep a sprayed path, %d diverted to escape, %d disconnected",
				live, diverted, unreachable),
		})
	finish(&cert, w.cdg, nil)
	return cert
}
