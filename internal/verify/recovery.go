package verify

import (
	"fmt"

	"dsnet/internal/graph"
	"dsnet/internal/netsim"
	"dsnet/internal/routing"
)

// CertifyRecoveryEscape certifies the up*/down* escape network that the
// runtime deadlock-recovery subsystem rebuilds for victim reinjection on
// a fault-degraded fabric. recovery.Escape.Rebuild derives its tables
// with routing.Surviving, the rebuild used here, so the certificate
// describes exactly the network aborted packets ride. Recovering
// packets are pinned to the single escape VC (VCs-1), hence the CDG is
// enumerated at one channel class: Dally-Seitz acyclicity of that class
// is what makes a recovery abort terminal rather than a new deadlock.
func CertifyRecoveryEscape(g *graph.Graph, edgeDead, swDead []bool, vcs int) Certificate {
	cert := Certificate{
		Combo:    "recovery/escape",
		Topology: fmt.Sprintf("surviving subgraph (%d dead edges, %d dead switches)", countTrue(edgeDead), countTrue(swDead)),
		Routing:  "updown-escape",
		VCs:      vcs,
		Doc:      "deadlock-recovery reinjection network re-certified on the surviving subgraph",
	}
	if vcs < 1 {
		finish(&cert, nil, fmt.Errorf("verify: recovery escape needs >= 1 VC, got %d", vcs))
		return cert
	}
	alive, ud := routing.Surviving(g, edgeDead, swDead)
	cdg, totality, err := UpDownEscape(alive, ud, 1)
	if err == nil {
		cert.Checks = append(cert.Checks, totality)
	}
	finish(&cert, cdg, err)
	return cert
}

// CertifyRecoveryTimeline replays a fault plan's events cumulatively and
// re-certifies the recovery escape network after each one (the
// per-degraded-epoch half of the recovery safety argument; the runtime
// half is the chaos engine's recovery monitor). The first entry is the
// pristine baseline, and after the last repair of a fail-then-repair
// plan the certificate must match it again.
func CertifyRecoveryTimeline(g *graph.Graph, plan *netsim.FaultPlan, vcs int) ([]TimelineEntry, error) {
	return CertifyFaultTimeline(g, plan, func(edgeDead, swDead []bool) Certificate {
		return CertifyRecoveryEscape(g, edgeDead, swDead, vcs)
	})
}
