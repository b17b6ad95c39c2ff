package search

import (
	"errors"
	"fmt"

	"dsnet/internal/analysis"
	"dsnet/internal/graph"
	"dsnet/internal/harness"
	"dsnet/internal/layout"
	"dsnet/internal/multipath"
	"dsnet/internal/netsim"
	"dsnet/internal/routing"
	"dsnet/internal/verify"
)

// Objective names the quality axis of the search. Cost is always the
// layout-aware itemized interconnect cost; quality is what varies.
const (
	// ObjectiveASPL optimizes average shortest path length (hops) — the
	// paper's Figure 8 axis. Purely graph-theoretic: no simulation runs,
	// so searches are fast and certification is still enforced.
	ObjectiveASPL = "aspl"
	// ObjectiveThroughput optimizes simulated saturation throughput
	// (negated, so lower quality is better on the shared plane).
	ObjectiveThroughput = "throughput"
	// ObjectiveCombined optimizes ASPL per Gbit/s of saturation
	// throughput — a single quality index penalizing long paths and
	// early saturation at once.
	ObjectiveCombined = "combined"
	// ObjectiveDiversity optimizes mean pairwise min-cut (negated): the
	// Menger bound on how many edge-disjoint paths multipath spraying can
	// ever realize. Graph-theoretic like ASPL — no simulation runs.
	ObjectiveDiversity = "diversity"
)

// Objectives lists the accepted -objective values.
var Objectives = []string{ObjectiveASPL, ObjectiveThroughput, ObjectiveCombined, ObjectiveDiversity}

// EvalConfig fixes everything about candidate evaluation that is not
// the genome itself. It is fingerprinted into every cell key: two
// searches share cached evaluations exactly when their EvalConfigs are
// identical.
type EvalConfig struct {
	Constraints Constraints
	Objective   string
	Pattern     string // traffic pattern for the throughput probe
	Sim         netsim.Config
	Layout      layout.Config
	Cost        layout.CostModel

	// Saturation bisection bracket and tolerance (offered
	// flits/cycle/host), as in analysis.SaturationThroughput.
	ProbeLo, ProbeHi, ProbeTol float64
}

// DefaultEvalConfig returns the paper-parameter evaluation: uniform
// traffic, the Section VI.B layout and 2013 cost model, and the
// Section VII simulator defaults with a saturation bracket matching
// the throughput comparison table.
func DefaultEvalConfig(c Constraints) EvalConfig {
	return EvalConfig{
		Constraints: c,
		Objective:   ObjectiveCombined,
		Pattern:     "uniform",
		Sim:         netsim.Default(),
		Layout:      layout.DefaultConfig(),
		Cost:        layout.DefaultCostModel(),
		ProbeLo:     0.02,
		ProbeHi:     0.40,
		ProbeTol:    0.02,
	}
}

// Quick shortens the simulation windows for smoke tests and
// fast searches; the knee estimate coarsens but stays deterministic.
func (c EvalConfig) Quick() EvalConfig {
	c.Sim.WarmupCycles = 2000
	c.Sim.MeasureCycles = 6000
	c.Sim.DrainCycles = 6000
	c.ProbeTol = 0.04
	return c
}

// NeedsSim reports whether the objective requires netsim runs.
func (c EvalConfig) NeedsSim() bool {
	return c.Objective != ObjectiveASPL && c.Objective != ObjectiveDiversity
}

// Validate rejects unusable configurations before any cell is built.
func (c EvalConfig) Validate() error {
	switch c.Objective {
	case ObjectiveASPL, ObjectiveThroughput, ObjectiveCombined, ObjectiveDiversity:
	default:
		return fmt.Errorf("search: unknown objective %q (objectives: %v)", c.Objective, Objectives)
	}
	if c.Constraints.N < 8 {
		return fmt.Errorf("search: need n >= 8, got %d", c.Constraints.N)
	}
	if c.Constraints.MaxDegree != 0 && c.Constraints.MaxDegree < 3 {
		return fmt.Errorf("search: port budget %d leaves no room for shortcuts", c.Constraints.MaxDegree)
	}
	if c.NeedsSim() {
		if err := c.Sim.Validate(); err != nil {
			return err
		}
		if c.ProbeLo < 0 || c.ProbeHi <= c.ProbeLo || c.ProbeTol <= 0 {
			return fmt.Errorf("search: bad probe bracket [%g,%g] tol %g", c.ProbeLo, c.ProbeHi, c.ProbeTol)
		}
	}
	return nil
}

// Fingerprint digests every field that can change an evaluation
// result, for the cell key.
func (c EvalConfig) Fingerprint() string {
	return harness.Fingerprint(
		"searcheval/v2", // v2: diversity objective records MeanMinCut

		c.Constraints.N, c.Constraints.MaxDegree,
		c.Objective, c.Pattern,
		harness.SimConfigFingerprint(c.Sim),
		fmt.Sprintf("%+v", c.Layout),
		fmt.Sprintf("%+v", c.Cost),
		harness.CanonFloat(c.ProbeLo), harness.CanonFloat(c.ProbeHi), harness.CanonFloat(c.ProbeTol),
	)
}

// Rejection reasons recorded on Eval.Rejected. A rejected candidate is
// never simulated and never archived; the engine counts reasons.
const (
	RejectInvalid      = "invalid-genome" // range/self-loop/ring-duplicate violations
	RejectDegree       = "degree-budget"  // port budget exceeded
	RejectDisconnected = "disconnected"   // base graph not connected
	RejectUncertified  = "uncertified"    // Dally–Seitz CDG cyclic or totality failure
	RejectSaturated    = "saturated-at-floor"
)

// Eval is the cached result of one candidate evaluation — the value of
// one content-addressed harness cell.
type Eval struct {
	Fingerprint string `json:"fingerprint"`
	Genes       int    `json:"genes"`
	MaxDegree   int    `json:"max_degree"`

	// Rejected carries the counted rejection reason; empty means the
	// candidate was certified and measured.
	Rejected string `json:"rejected,omitempty"`

	// Verify certificate summary: the Dally–Seitz verdict on the
	// up*/down* escape network the adaptive router falls back to, plus
	// the CDG size and the totality check. Every archived candidate
	// carries a certified record.
	Certified    bool   `json:"certified"`
	CertChannels int    `json:"cert_channels,omitempty"`
	CertDeps     int    `json:"cert_deps,omitempty"`
	CertDetail   string `json:"cert_detail,omitempty"`

	Diameter int     `json:"diameter,omitempty"`
	ASPL     float64 `json:"aspl,omitempty"`

	SaturationGbps float64 `json:"saturation_gbps,omitempty"`
	KneeRate       float64 `json:"knee_rate,omitempty"`

	// MeanMinCut is the mean pairwise Menger bound, measured only under
	// the diversity objective (it costs a max-flow per pair).
	MeanMinCut float64 `json:"mean_min_cut,omitempty"`

	CableMetres float64 `json:"cable_metres,omitempty"`
	CostTotal   float64 `json:"cost_total,omitempty"`

	// Quality and Cost are the two Pareto axes under the configured
	// objective (both minimized).
	Quality float64 `json:"quality"`
	Cost    float64 `json:"cost"`
}

// rejected builds a rejection record that still identifies the genome.
func rejected(g Genome, reason, detail string) Eval {
	return Eval{
		Fingerprint: g.Fingerprint(),
		Genes:       len(g.Extra),
		MaxDegree:   g.MaxDegree(),
		Rejected:    reason,
		CertDetail:  detail,
	}
}

// Evaluate measures one candidate. The pipeline is strict about order:
// genome validation, connectivity, then Dally–Seitz certification of
// the up*/down* escape network — and only a certified candidate is
// ever simulated. Constraint and certification failures come back as
// counted rejections; only infrastructure faults (a layout that cannot
// price, a simulator that will not start) surface as errors.
func Evaluate(g Genome, cfg EvalConfig) (Eval, error) {
	if err := g.Validate(cfg.Constraints.MaxDegree); err != nil {
		reason := RejectInvalid
		if errors.Is(err, graph.ErrDegreeLimit) {
			reason = RejectDegree
		}
		return rejected(g, reason, err.Error()), nil
	}
	gr, err := g.Build(cfg.Constraints.MaxDegree)
	if err != nil {
		return rejected(g, RejectInvalid, err.Error()), nil
	}
	if !gr.Connected() {
		return rejected(g, RejectDisconnected, ""), nil
	}

	// Dally–Seitz gate: the deterministic up*/down* escape network the
	// Duato-style adaptive router guarantees progress on must have an
	// acyclic channel dependency graph, and its tables must be total.
	ud, err := routing.NewUpDown(gr, 0)
	if err != nil {
		return rejected(g, RejectUncertified, err.Error()), nil
	}
	cdg, totality, err := verify.UpDownEscape(gr, ud, 1)
	if err != nil {
		return rejected(g, RejectUncertified, err.Error()), nil
	}
	ev := Eval{
		Fingerprint:  g.Fingerprint(),
		Genes:        len(g.Extra),
		MaxDegree:    g.MaxDegree(),
		CertChannels: cdg.Channels(),
		CertDeps:     cdg.Dependencies(),
	}
	if cyc := cdg.FindCycle(); cyc != nil {
		ev.Rejected = RejectUncertified
		ev.CertDetail = fmt.Sprintf("CDG cycle of length %d", len(cyc))
		return ev, nil
	}
	if !totality.OK {
		ev.Rejected = RejectUncertified
		ev.CertDetail = totality.Detail
		return ev, nil
	}
	ev.Certified = true
	ev.CertDetail = fmt.Sprintf("up*/down* escape acyclic: %d channels, %d deps", cdg.Channels(), cdg.Dependencies())

	m := gr.AllPairs()
	ev.Diameter = int(m.Diameter)
	ev.ASPL = m.ASPL

	lay, err := layout.New(g.N, cfg.Layout)
	if err != nil {
		return Eval{}, err
	}
	price, err := lay.Price(gr, cfg.Cost)
	if err != nil {
		return Eval{}, err
	}
	ev.CableMetres = price.CableMetres
	ev.CostTotal = price.Total
	ev.Cost = price.Total

	if cfg.NeedsSim() {
		rt, err := netsim.NewDuatoUpDown(gr, cfg.Sim.VCs)
		if err != nil {
			return Eval{}, err
		}
		row, err := analysis.SaturationThroughput(cfg.Sim, gr, rt, cfg.Pattern, cfg.ProbeLo, cfg.ProbeHi, cfg.ProbeTol)
		if err != nil {
			// The floor of the bracket already saturating is a property of
			// the candidate, not of the infrastructure: count it out.
			ev.Rejected = RejectSaturated
			ev.CertDetail = err.Error()
			return ev, nil
		}
		ev.SaturationGbps = row.SaturationGB
		ev.KneeRate = row.KneeRate
	}

	switch cfg.Objective {
	case ObjectiveASPL:
		ev.Quality = ev.ASPL
	case ObjectiveThroughput:
		ev.Quality = -ev.SaturationGbps
	case ObjectiveCombined:
		if ev.SaturationGbps <= 0 {
			ev.Rejected = RejectSaturated
			return ev, nil
		}
		ev.Quality = ev.ASPL / ev.SaturationGbps
	case ObjectiveDiversity:
		// Negated so the shared minimize-both Pareto plane still applies:
		// more edge-disjoint headroom per pair is better.
		ev.MeanMinCut = multipath.MeanMinCut(gr)
		ev.Quality = -ev.MeanMinCut
	}
	return ev, nil
}

// Cell wraps one candidate evaluation as a content-addressed harness
// cell: the key captures the genome fingerprint and the full
// evaluation configuration, so equal candidates under equal configs
// replay from the sweep cache — searches resume instead of
// re-simulating, and results are bit-identical at any -j.
func Cell(g Genome, cfg EvalConfig, evalFP string) harness.Cell[Eval] {
	key := harness.NewKey("search")
	key.Topo = "genome"
	key.Routing = "adaptive"
	key.Switching = "vct"
	key.Pattern = cfg.Pattern
	key.N = g.N
	key.Seed = cfg.Sim.Seed
	key.Params = []harness.Param{
		harness.P("genome", g.Fingerprint()),
		harness.P("eval", evalFP),
	}
	return harness.Cell[Eval]{Key: key, Run: func() (Eval, error) {
		return Evaluate(g, cfg)
	}}
}
