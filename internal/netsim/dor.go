package netsim

import (
	"fmt"

	"dsnet/internal/topology"
)

// DORTorus drives the simulator with deterministic dimension-order
// routing on a torus, made deadlock-free with the classic dateline
// scheme: within each dimension a packet starts on an even VC and
// switches to the odd VC after crossing that dimension's wraparound link;
// the VC pair resets when the packet advances to the next dimension.
// Dimension order plus the dateline split makes the channel dependency
// graph acyclic. With 4 or more VCs the second VC pair (2,3) is offered
// as well for throughput.
//
// This is the "simple custom routing logic" of classical low-degree
// topologies that the paper contrasts with topology-agnostic routing; it
// serves as an ablation against the adaptive scheme used in Figure 10.
type DORTorus struct {
	t   *topology.Torus
	vcs int
}

// NewDORTorus builds the router. The torus needs at least 2 VCs for the
// dateline scheme.
func NewDORTorus(t *topology.Torus, vcs int) (*DORTorus, error) {
	if vcs < 2 {
		return nil, fmt.Errorf("netsim: DOR dateline scheme needs >= 2 VCs, got %d", vcs)
	}
	if !t.Wrap {
		return nil, fmt.Errorf("netsim: DORTorus expects a torus; use it with wrap enabled")
	}
	return &DORTorus{t: t, vcs: vcs}, nil
}

// Candidates implements Router. RtState bit 0 is the dateline bit of the
// dimension currently being corrected.
func (r *DORTorus) Candidates(st PacketState, sw int, buf []Candidate) []Candidate {
	dst := int(st.DstSw)
	if sw == dst {
		return buf
	}
	for dim := range r.t.Dims {
		from := r.t.CoordOf(sw, dim)
		delta := r.t.DimDist(from, r.t.CoordOf(dst, dim), dim)
		if delta == 0 {
			continue
		}
		k := r.t.Dims[dim]
		step := 1
		if delta < 0 {
			step = -1
		}
		to := ((from+step)%k + k) % k
		next := r.t.WithCoord(sw, dim, to)

		// Dateline bit: set once the packet crosses the wrap link of the
		// current dimension; fresh when this hop completes the dimension
		// (the next dimension starts on the even VC).
		wrapped := (from == k-1 && to == 0) || (from == 0 && to == k-1)
		bit := st.RtState & 1
		if wrapped {
			bit = 1
		}
		newState := bit
		if delta == step { // this hop aligns the dimension
			newState = 0
		}
		base := int8(bit)
		buf = append(buf, Candidate{Next: int32(next), VC: base, Escape: true, NewState: newState})
		if r.vcs >= 4 {
			buf = append(buf, Candidate{Next: int32(next), VC: base + 2, Escape: true, NewState: newState})
		}
		return buf
	}
	return buf
}
