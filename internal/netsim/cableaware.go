package netsim

import (
	"fmt"
	"math"

	"dsnet/internal/layout"
)

// SetCableDelays derives the inter-switch link delays from the physical
// cable lengths of the Section VI.B floorplan (nsPerMetre of
// propagation, typically 5 ns/m, rounded up to whole cycles and at
// least one cycle) instead of the paper's constant 20 ns. This closes
// the loop between Figures 9 and 10: topologies with longer cables now
// pay for them in simulated latency too, an effect the authors'
// simulator did not model. Must be called before Run.
//
// Host injection/ejection links keep the configured constant delay.
func (s *Sim) SetCableDelays(l *layout.Layout, nsPerMetre float64) error {
	if err := s.started("SetCableDelays"); err != nil {
		return err
	}
	if s.g.N() != l.N {
		return fmt.Errorf("netsim: graph has %d switches, layout %d", s.g.N(), l.N)
	}
	if !(nsPerMetre >= 0) || math.IsInf(nsPerMetre, 1) {
		return fmt.Errorf("netsim: propagation %g ns/m is not a finite non-negative value", nsPerMetre)
	}
	cyc := s.cfg.CycleNS()
	delays := make([]int64, s.g.M())
	maxDelay := s.cfg.LinkDelayCycles
	for i, e := range s.g.Edges() {
		metres := l.CableLength(int(e.U), int(e.V))
		cycles := math.Ceil(metres * nsPerMetre / cyc)
		if cycles >= math.MaxInt64 {
			return fmt.Errorf("netsim: %g ns/m over a %.1f m cable overflows the link delay", nsPerMetre, metres)
		}
		delays[i] = max(int64(cycles), 1)
		maxDelay = max(maxDelay, delays[i])
	}
	for i, d := range delays {
		s.linkDelay[2*i] = d
		s.linkDelay[2*i+1] = d
	}
	s.maxDelay = maxDelay
	return nil
}
