package recovery

import (
	"fmt"

	"dsnet/internal/graph"
	"dsnet/internal/routing"
)

// Escape is the recovery escape network: deterministic up*/down* routing
// on the surviving subgraph, confined to the highest virtual channel
// (VCs-1). The DSN channel classes of Section V.A only occupy VCs 0..2
// of the 4-VC budget, so the recovery VC is free of ordinary traffic on
// the custom-routed targets; on Duato targets it overlays the adaptive
// VCs but the up*/down* orientation keeps the recovery CDG acyclic
// regardless (see verify.CertifyRecoveryEscape). Aborted packets ride it
// exclusively from their re-source to delivery, so recovery traffic can
// never re-enter the dependency cycle it was cut out of.
type Escape struct {
	vc int8
	ud *routing.UpDown
}

// NewEscape builds the pristine escape network for a graph simulated
// with vcs virtual channels.
func NewEscape(g *graph.Graph, vcs int) (*Escape, error) {
	if vcs < 1 {
		return nil, fmt.Errorf("recovery: escape network needs >= 1 VC, got %d", vcs)
	}
	e := &Escape{vc: int8(vcs - 1)}
	e.Rebuild(g, nil, nil)
	return e, nil
}

// Rebuild re-derives the escape tables on the surviving subgraph,
// re-rooted at the lowest-ID live switch. routing.Surviving is the one
// rebuild netsim.DuatoUpDown.UpdateFaults and verify's degraded
// certificates use too, so verify.CertifyRecoveryEscape describes
// exactly this network.
func (e *Escape) Rebuild(g *graph.Graph, edgeDead, swDead []bool) {
	_, e.ud = routing.Surviving(g, edgeDead, swDead)
}

// NextHop returns the next switch on the escape path from sw to dst and
// whether that hop is a down move; next is -1 when dst is unreachable on
// the surviving graph (the caller's transport drains the packet).
func (e *Escape) NextHop(sw, dst int, descended bool) (next int, down bool) {
	return e.ud.NextHop(sw, dst, descended)
}

// VC is the virtual channel recovery traffic is confined to.
func (e *Escape) VC() int8 { return e.vc }
