package verify

import (
	"fmt"

	"dsnet/internal/core"
)

// maxDegreeBound returns the documented degree cap of a DSN variant's
// physical graph. The basic construction never exceeds degree 5 (two
// ring links, one outgoing shortcut, at most two incoming shortcuts);
// DSN-E adds one Up link out plus one in (+2) and at most two Extra
// endpoints per switch (+2); DSN-D adds the two endpoints of the q-grid
// short links (+2). DSN-V shares the basic wiring.
func maxDegreeBound(v core.Variant) int {
	switch v {
	case core.VariantE:
		return 9
	case core.VariantD:
		return 7
	default:
		return 5
	}
}

// DSNInvariants evaluates the paper-theorem bounds of a DSN instance as
// executable checks:
//
//   - degree-bound: max degree within the variant's cap, min degree >= 2
//   - diameter-bound: graph diameter <= 2.5p + r (Theorem 1(b), when
//     x > p - log p)
//   - routing-diameter-bound: maxRoute, the longest custom route (a
//     walkDSN pass), <= 3p + r hops (Theorem 1(c), when x > p - log p,
//     except for DSN-D, whose walks are short-aware)
//   - dsnd-diameter: DSN-D diameter <= 7p/4 (+2 implementation slack
//     for small n, matching the Section V.B statement)
func DSNInvariants(d *core.DSN, maxRoute int) []CheckResult {
	var checks []CheckResult

	g := d.Graph()
	degOK := g.MaxDegree() <= maxDegreeBound(d.Variant) && g.MinDegree() >= 2
	checks = append(checks, CheckResult{
		Name: "invariant:degree-bound",
		OK:   degOK,
		Detail: fmt.Sprintf("degree in [%d,%d], cap %d",
			g.MinDegree(), g.MaxDegree(), maxDegreeBound(d.Variant)),
	})

	m := g.AllPairs()
	if d.BoundsApply() {
		bound := d.DiameterBound()
		checks = append(checks, CheckResult{
			Name:   "invariant:diameter-bound",
			OK:     float64(m.Diameter) <= bound,
			Detail: fmt.Sprintf("diameter %d <= 2.5p+r = %.1f", m.Diameter, bound),
		})
	}
	if d.Variant == core.VariantD {
		p := float64(d.P)
		bound := 7*p/4 + 2
		checks = append(checks, CheckResult{
			Name:   "invariant:dsnd-diameter",
			OK:     float64(m.Diameter) <= bound,
			Detail: fmt.Sprintf("diameter %d <= 7p/4+2 = %.1f", m.Diameter, bound),
		})
	}
	if d.BoundsApply() && d.Variant != core.VariantD {
		bound := d.RoutingDiameterBound()
		checks = append(checks, CheckResult{
			Name:   "invariant:routing-diameter-bound",
			OK:     maxRoute <= bound,
			Detail: fmt.Sprintf("max route %d <= 3p+r = %d", maxRoute, bound),
		})
	}
	return checks
}
