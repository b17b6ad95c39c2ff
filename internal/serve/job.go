package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"dsnet/internal/analysis"
	"dsnet/internal/chaos"
	"dsnet/internal/harness"
	"dsnet/internal/layout"
	"dsnet/internal/netsim"
	"dsnet/internal/verify"
)

// Request is the JSON body of /v1/sweep, /v1/chaos and /v1/certify.
// Every field that can change a result participates in the request
// fingerprint (and, transitively, in the cells' content addresses);
// TimeoutMS is the one exception — it bounds execution without
// affecting results, so requests differing only in deadline dedup onto
// the same flight.
type Request struct {
	// Kind is set by the endpoint: "sweep" or "certify".
	Kind string `json:"kind,omitempty"`
	// Family selects the sweep: path, cable, latency, fig10, fault,
	// degradation, collective or chaos.
	Family string `json:"family,omitempty"`

	Topo       string    `json:"topo,omitempty"`    // latency: comparison topology name
	Pattern    string    `json:"pattern,omitempty"` // latency/fig10 traffic pattern
	N          int       `json:"n,omitempty"`
	Rate       float64   `json:"rate,omitempty"`
	Rates      []float64 `json:"rates,omitempty"`
	Fracs      []float64 `json:"fracs,omitempty"`
	Trials     int       `json:"trials,omitempty"`
	Sizes      []int     `json:"sizes,omitempty"` // collective switch counts
	Collective string    `json:"collective,omitempty"`
	Algo       string    `json:"algo,omitempty"`
	ChunkFlits int       `json:"chunk_flits,omitempty"`
	Reps       int       `json:"reps,omitempty"`
	Targets    []string  `json:"targets,omitempty"` // chaos targets
	Scenarios  int       `json:"scenarios,omitempty"`
	Wormhole   bool      `json:"wormhole,omitempty"`
	Seed       uint64    `json:"seed,omitempty"`
	Seeds      []uint64  `json:"seeds,omitempty"`
	LogSizes   []int     `json:"log_sizes,omitempty"`

	// Simulation window overrides (cycles; 0 keeps the engine default).
	// They are fingerprinted: a short-window run is a different result.
	WarmupCycles  int `json:"warmup_cycles,omitempty"`
	MeasureCycles int `json:"measure_cycles,omitempty"`
	DrainCycles   int `json:"drain_cycles,omitempty"`

	// TimeoutMS bounds this request's execution. Excluded from the
	// fingerprint. 0 selects the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Families lists the accepted sweep families.
var Families = []string{"path", "cable", "latency", "fig10", "fault", "degradation", "collective", "chaos"}

// reqLimits bounds a single request so one client cannot wedge the
// daemon with an unbounded grid; storms are made of many small
// requests, not one huge one.
const (
	maxN       = 4096
	maxTrials  = 1000
	maxList    = 64 // rates, fracs, sizes, seeds, log sizes, targets
	maxReps    = 100
	maxLogSize = 12
)

// normalize validates the request for the given endpoint kind and
// fills family defaults, so that the fingerprint of two equivalent
// requests (one spelled out, one relying on defaults) is identical.
func (q *Request) normalize(kind string) error {
	q.Kind = kind
	if kind == "certify" {
		if q.Family != "" {
			return fmt.Errorf("certify requests take no family")
		}
		return nil
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	if q.N == 0 {
		q.N = 64
	}
	if q.N < 8 || q.N > maxN {
		return fmt.Errorf("n %d outside [8, %d]", q.N, maxN)
	}
	// Checked in declaration order, not map order: with two oversized
	// lists the error message must not vary run to run.
	for _, c := range []struct {
		name string
		l    int
	}{
		{"rates", len(q.Rates)}, {"fracs", len(q.Fracs)}, {"sizes", len(q.Sizes)},
		{"seeds", len(q.Seeds)}, {"log_sizes", len(q.LogSizes)}, {"targets", len(q.Targets)},
	} {
		if c.l > maxList {
			return fmt.Errorf("%s has %d entries, max %d", c.name, c.l, maxList)
		}
	}
	switch q.Family {
	case "path", "cable":
		if len(q.LogSizes) == 0 {
			q.LogSizes = []int{5, 6}
		}
		for _, lg := range q.LogSizes {
			if lg < 3 || lg > maxLogSize {
				return fmt.Errorf("log size %d outside [3, %d]", lg, maxLogSize)
			}
		}
		if len(q.Seeds) == 0 {
			q.Seeds = []uint64{q.Seed}
		}
	case "latency":
		if q.Topo == "" {
			q.Topo = "DSN"
		}
		if !slices.Contains(analysis.Names, q.Topo) {
			return fmt.Errorf("unknown topo %q (topologies: %v)", q.Topo, analysis.Names)
		}
		fallthrough
	case "fig10":
		if q.Pattern == "" {
			q.Pattern = "uniform"
		}
		// analysis.PatternFor also takes "alltoall" for "all-to-all".
		if !slices.Contains(analysis.PatternNames, q.Pattern) && q.Pattern != "alltoall" {
			return fmt.Errorf("unknown pattern %q (patterns: %v)", q.Pattern, analysis.PatternNames)
		}
		if len(q.Rates) == 0 {
			q.Rates = []float64{0.02, 0.06, 0.10}
		}
	case "fault":
		if len(q.Fracs) == 0 {
			q.Fracs = []float64{0.05}
		}
		if q.Trials == 0 {
			q.Trials = 4
		}
		if q.Trials < 1 || q.Trials > maxTrials {
			return fmt.Errorf("trials %d outside [1, %d]", q.Trials, maxTrials)
		}
	case "degradation":
		if len(q.Fracs) == 0 {
			q.Fracs = []float64{0, 0.05}
		}
		if q.Rate == 0 {
			q.Rate = 0.06
		}
	case "collective":
		if len(q.Sizes) == 0 {
			q.Sizes = []int{64}
		}
		if q.Collective == "" {
			q.Collective = "allreduce"
		}
		if q.Algo == "" {
			q.Algo = "ring"
		}
		if q.Reps == 0 {
			q.Reps = 1
		}
		if q.Reps < 1 || q.Reps > maxReps {
			return fmt.Errorf("reps %d outside [1, %d]", q.Reps, maxReps)
		}
	case "chaos":
		if len(q.Targets) == 0 {
			q.Targets = []string{"torus"}
		}
		for _, t := range q.Targets {
			if !slices.Contains(chaos.TargetNames, t) {
				return fmt.Errorf("unknown chaos target %q (targets: %v)", t, chaos.TargetNames)
			}
		}
		if q.N == 64 { // the generic default; chaos targets prefer 36
			q.N = 36
		}
		if q.Scenarios == 0 {
			q.Scenarios = 2
		}
		if q.Scenarios < 1 || q.Scenarios > maxList {
			return fmt.Errorf("scenarios %d outside [1, %d]", q.Scenarios, maxList)
		}
	case "":
		return fmt.Errorf("missing sweep family (one of %v)", Families)
	default:
		return fmt.Errorf("unknown sweep family %q (families: %v)", q.Family, Families)
	}
	return nil
}

// fingerprint is the flight/singleflight identity: the SHA-256 of the
// normalized request (deadline zeroed) plus the simulator engine
// version. Cells are pure functions of the normalized request, so equal
// fingerprints imply equal CellKey sets — the property concurrent dedup
// and the shared content-addressed cache both rest on.
func (q *Request) fingerprint() string {
	c := *q
	c.TimeoutMS = 0
	data, err := json.Marshal(c)
	if err != nil {
		// Request is plain data; Marshal cannot fail. Keep the signature
		// small and make any such defect loud.
		panic(fmt.Sprintf("serve: request fingerprint: %v", err))
	}
	sum := sha256.Sum256(append(data, harness.EngineVersion...))
	return hex.EncodeToString(sum[:])
}

// simConfig assembles the netsim configuration for simulator-backed
// families: engine defaults, the request seed, and window overrides.
func (q *Request) simConfig() netsim.Config {
	cfg := netsim.Default()
	cfg.Seed = q.Seed
	if q.WarmupCycles > 0 {
		cfg.WarmupCycles = int64(q.WarmupCycles)
	}
	if q.MeasureCycles > 0 {
		cfg.MeasureCycles = int64(q.MeasureCycles)
	}
	if q.DrainCycles > 0 {
		cfg.DrainCycles = int64(q.DrainCycles)
	}
	return cfg
}

// CertSummary is the JSON-friendly digest of one certification.
type CertSummary struct {
	Combo    string   `json:"combo"`
	Topology string   `json:"topology"`
	Routing  string   `json:"routing"`
	VCs      int      `json:"vcs"`
	Status   string   `json:"status"`
	OK       bool     `json:"ok"`
	Failed   []string `json:"failed_checks,omitempty"`
	Err      string   `json:"err,omitempty"`
}

// run executes the normalized request on the runner and returns its
// JSON-marshalable result. The context is threaded through the harness,
// so cancellation stops in-flight grids between cells.
func (q *Request) run(ctx context.Context, r *harness.Runner) (any, error) {
	if q.Kind == "certify" {
		// Static certification is a single bounded computation, not a
		// cell grid; honor cancellation at the boundary.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		certs := verify.CertifyAll(verify.DefaultOptions())
		out := make([]CertSummary, 0, len(certs))
		for i := range certs {
			c := &certs[i]
			out = append(out, CertSummary{
				Combo: c.Combo, Topology: c.Topology, Routing: c.Routing, VCs: c.VCs,
				Status: c.Status.String(), OK: c.OK(), Failed: c.FailedChecks(), Err: c.Err,
			})
		}
		return out, nil
	}
	switch q.Family {
	case "path":
		return analysis.PathSweep(ctx, r, q.LogSizes, q.Seeds)
	case "cable":
		return analysis.CableSweep(ctx, r, q.LogSizes, q.Seeds, layout.DefaultConfig())
	case "latency":
		g, err := analysis.BuildTopology(q.Topo, q.N, q.Seed)
		if err != nil {
			return nil, err
		}
		return analysis.LatencySweep(ctx, r, q.simConfig(), g, q.Topo, q.Pattern, q.Rates)
	case "fig10":
		return analysis.Fig10Curves(ctx, r, q.simConfig(), q.Pattern, q.Rates, q.Seed)
	case "fault":
		return analysis.FaultSweep(ctx, r, q.N, q.Fracs, q.Trials, q.Seed)
	case "degradation":
		return analysis.DegradationSweep(ctx, r, q.simConfig(), q.N, q.Fracs, q.Rate, q.Seed)
	case "collective":
		return analysis.CollectiveSweep(ctx, r, q.simConfig(), q.Sizes, q.Collective, q.Algo, q.ChunkFlits, q.Reps, q.Seed)
	case "chaos":
		return analysis.ChaosSweep(ctx, r, q.Targets, q.N, q.Seed, q.Scenarios, q.Wormhole)
	}
	return nil, fmt.Errorf("serve: unreachable family %q", q.Family)
}
