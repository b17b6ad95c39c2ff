package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"

	"dsnet/internal/graph"
	"dsnet/internal/netsim"
)

// Fingerprints condense structured inputs into short hex digests for
// CellKey params. A cell keyed on (topo name, n, seed) alone would be
// unsound when the caller passes an arbitrary pre-built graph or a
// tuned simulator config; fingerprinting the actual content keeps the
// cache honest for any input.

// fingerprintLen is the digest prefix length in hex characters (96
// bits — collision-safe at any realistic grid size, short enough to
// read in key dumps).
const fingerprintLen = 24

func finish(h hash.Hash) string {
	return hex.EncodeToString(h.Sum(nil))[:fingerprintLen]
}

// Fingerprint digests an arbitrary list of printf-rendered values —
// the catch-all for configuration structs without a dedicated
// fingerprint. Callers must render the values deterministically
// (fmt's %v/%+v on structs and slices is; maps are not).
//
// Each value is printed as fmt.Fprintln prints it, so a value with a
// String method is digested through that method alone: netsim.Result's
// String shows five of its fields, and a change to any other field
// leaves the digest unchanged. To digest every field, pass
// fmt.Sprintf("%#v", v), which ignores String.
func Fingerprint(vs ...any) string {
	h := sha256.New()
	fmt.Fprintln(h, vs...)
	return finish(h)
}

// GraphFingerprint digests a graph's full edge list (the stable text
// serialization, which covers vertex count, endpoints, kinds and
// levels).
func GraphFingerprint(g *graph.Graph) string {
	h := sha256.New()
	if _, err := g.WriteTo(h); err != nil {
		// WriteTo into a hash cannot fail short of a broken graph; keep
		// the signature small and make any such defect loudly uncacheable.
		panic(fmt.Sprintf("harness: graph fingerprint: %v", err))
	}
	return finish(h)
}

// SimConfigFingerprint digests every netsim.Config field that can
// affect a simulation result. Trace settings are deliberately
// excluded: tracing is documented not to alter behavior.
func SimConfigFingerprint(c netsim.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "vcs=%d buf=%d pkt=%d pipe=%d link=%d hosts=%d bits=%d gbps=%s seed=%d esc=%d warm=%d meas=%d drain=%d retry=%d backoff=%d ftimeout=%d wdog=%d",
		c.VCs, c.BufFlitsPerVC, c.PacketFlits, c.PipelineCycles, c.LinkDelayCycles,
		c.HostsPerSwitch, c.FlitBits, CanonFloat(c.LinkGbps), c.Seed,
		c.EscapePatienceCycles, c.WarmupCycles, c.MeasureCycles, c.DrainCycles,
		c.RetryBudget, c.RetryBackoffCycles, c.FaultTimeoutCycles, c.WatchdogCycles)
	return finish(h)
}

// FaultPlanFingerprint digests a fault plan's event schedule. A nil or
// empty plan digests to the empty string, so "no faults" keys stay
// readable.
func FaultPlanFingerprint(p *netsim.FaultPlan) string {
	if p == nil || len(p.Events) == 0 {
		return ""
	}
	h := sha256.New()
	for _, ev := range p.Events {
		fmt.Fprintf(h, "c=%d e=%d s=%d r=%v;", ev.Cycle, ev.Edge, ev.Switch, ev.Repair)
	}
	return finish(h)
}
