package verify

import (
	"fmt"

	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/netsim"
	"dsnet/internal/routing"
)

// CertifyDegradedUpDown certifies the up*/down* escape network rebuilt
// on a fault-degraded graph by routing.Surviving, the rebuild
// netsim.DuatoUpDown.UpdateFaults runs: dead edges and edges touching
// dead switches are dropped, the tree re-roots at the lowest-ID live
// switch, and the partial build tolerates disconnection (cross-cut
// pairs get no channels — the simulator's timeout transport handles
// them). The table is enumerated at vcs channel classes. The
// certificate must stay acyclic for every fault set: the rank
// orientation is a total order on any subgraph.
func CertifyDegradedUpDown(g *graph.Graph, edgeDead, swDead []bool, vcs int) Certificate {
	cert := Certificate{
		Combo:    "degraded/updown",
		Topology: fmt.Sprintf("surviving subgraph (%d dead edges, %d dead switches)", countTrue(edgeDead), countTrue(swDead)),
		Routing:  "updown-partial",
		VCs:      vcs,
		Doc:      "escape network re-certified on the surviving subgraph",
	}
	alive, ud := routing.Surviving(g, edgeDead, swDead)
	cdg, totality, err := UpDownEscape(alive, ud, vcs)
	if err == nil {
		cert.Checks = append(cert.Checks, totality)
	}
	finish(&cert, cdg, err)
	return cert
}

// CertifyDegradedDSN certifies the fault-tolerant DSN source routing on
// a degraded fabric by walking netsim.DSNSourceRouted itself after its
// UpdateFaults (nil or short masks count as alive): packets follow the
// custom route until a hop dies under them, then re-source onto a
// ring-only detour (shorter surviving direction first, reversing once
// per switch at a cut) riding the FINISH-phase channel classes. The
// router is built with NewDSNSourceRoutedUnsafe, which also accepts the
// basic variant; the certificate reports whether its CDG is cyclic.
// The router keeps no per-pair state, so building one per call costs
// nothing.
//
// The detour is best-effort by design: it ignores the Extra-window
// destination scoping that Theorem 3 uses to break the ring cycle, so a
// fault set that detours traffic across the ring seam can make the
// degraded CDG cyclic. The certificate reports that honestly — the
// simulator's timeout/retry transport, not the CDG, is the liveness
// backstop under faults — and repair events must restore the original
// acyclic certificate (see the regression tests). The faulted:delivery
// check counts the pairs that detour and the pairs whose walk never
// arrives (boxed in, or oscillating past the walk's step cap).
func CertifyDegradedDSN(d *core.DSN, edgeDead, swDead []bool) Certificate {
	cert := Certificate{
		Combo:    "degraded/dsn-custom",
		Topology: fmt.Sprintf("%s (%d dead edges, %d dead switches)", d, countTrue(edgeDead), countTrue(swDead)),
		Routing:  "dsn-custom+ring-detour",
		VCs:      3,
		Doc:      "walk of the fault re-sourcing onto ring detours",
	}
	rt, err := netsim.NewDSNSourceRoutedUnsafe(d)
	if err != nil {
		finish(&cert, nil, err)
		return cert
	}
	// The router indexes its masks directly; missing entries are alive.
	ed, sd := make([]bool, d.Graph().M()), make([]bool, d.N)
	copy(ed, edgeDead)
	copy(sd, swDead)
	rt.UpdateFaults(ed, sd)
	w := walkRouter(rt, d.Graph(), cert.VCs, sd, nil)
	cert.Checks = append(cert.Checks, CheckResult{
		Name:   "faulted:delivery",
		OK:     true, // drops are legal under faults; recorded for the report
		Detail: fmt.Sprintf("%d pairs detoured, %d pairs degraded to timeout-drop", w.detoured, w.dropped),
	})
	finish(&cert, w.cdg, nil)
	return cert
}

func swAt(swDead []bool, i int) bool { return len(swDead) > i && swDead[i] }

func countTrue(b []bool) int {
	k := 0
	for _, v := range b {
		if v {
			k++
		}
	}
	return k
}

// TimelineEntry is the certificate after one fault event was applied
// (Index -1, Cycle -1 is the pristine baseline before any event).
type TimelineEntry struct {
	Index int
	Cycle int64
	Cert  Certificate
}

// CertifyFaultTimeline applies a FaultPlan's events cumulatively and
// re-certifies after each one using the supplied certifier (typically a
// closure over CertifyDegradedUpDown or CertifyDegradedDSN). The first
// entry is the pristine baseline; after the last repair of a
// fail-then-repair plan the certificate must match it again.
func CertifyFaultTimeline(g *graph.Graph, plan *netsim.FaultPlan, certify func(edgeDead, swDead []bool) Certificate) ([]TimelineEntry, error) {
	if err := plan.Validate(g); err != nil {
		return nil, err
	}
	edgeDead := make([]bool, g.M())
	swDead := make([]bool, g.N())
	entries := []TimelineEntry{{Index: -1, Cycle: -1, Cert: certify(edgeDead, swDead)}}
	for i, ev := range plan.Events {
		switch {
		case ev.Edge >= 0:
			edgeDead[ev.Edge] = !ev.Repair
		case ev.Switch >= 0:
			swDead[ev.Switch] = !ev.Repair
		}
		entries = append(entries, TimelineEntry{Index: i, Cycle: ev.Cycle, Cert: certify(edgeDead, swDead)})
	}
	return entries, nil
}

// SameCertificate reports whether two certificates agree on everything a
// repair must restore: status, channel/dependency counts, witness, and
// per-check outcomes.
func SameCertificate(a, b *Certificate) bool {
	if a.Status != b.Status || a.Channels != b.Channels || a.Deps != b.Deps {
		return false
	}
	if len(a.Witness) != len(b.Witness) {
		return false
	}
	for i := range a.Witness {
		if a.Witness[i] != b.Witness[i] {
			return false
		}
	}
	if len(a.Checks) != len(b.Checks) {
		return false
	}
	for i := range a.Checks {
		if a.Checks[i].OK != b.Checks[i].OK {
			return false
		}
	}
	return true
}
