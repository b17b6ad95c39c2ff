// Package verify is the static certification engine for the repository's
// topology × routing × VC-assignment combinations.
//
// For every registered combination it (a) constructs the full channel
// dependency graph of the routing function and certifies deadlock
// freedom via Dally–Seitz acyclicity, (b) checks the paper's theorem
// bounds as executable invariants (degree caps, diameter ≤ 2.5p + r,
// route length ≤ 3p + r, DSN-D diameter ≤ 7p/4), and (c) verifies
// routing-table totality and consistency: every src→dst pair is routed,
// every next hop rides a real edge, no hop is a self-loop, and progress
// is monotone where the algorithm claims it.
//
// The CDGs come from three sources. The simulator's routers (DOR
// dateline, up*/down*, the Duato-style adaptive router, the DSN custom
// routing on VCs, multipath spraying) are certified by walking the
// netsim.Router itself (walk.go), so a certificate describes the code
// that runs; for Duato-style routers the walk keeps the escape layer
// only. The paper's Section V.A channel classes are certified over
// core.(*DSN).AppendRoute, one pass per certificate (walkDSN, Theorem
// 3). Bare up*/down* tables, the escape networks below, are walked once
// per certificate (UpDownEscape): the walk records their CDG at one
// channel class and lifts it to a VC width (routing.CDG.Lift), and
// checks totality on the same routes.
//
// The engine also re-certifies fault-degraded fabrics after each
// FaultPlan event (faults.go): the DSN custom router is walked after its
// own UpdateFaults, and the up*/down*, multipath and recovery escapes
// are rebuilt by routing.Surviving, the rebuild their runtime users
// call. Repair events must restore the original certificate.
//
// The known-negative is part of the contract: the basic DSN routing
// shares ring channels between its phases, so its FINISH phase closes a
// dependency cycle around the ring. CertifyAll reports that combination
// as cyclic with a concrete witness cycle — exactly the paper's argument
// for why DSN-E/DSN-V need the Section V.A channel grouping.
package verify

import (
	"fmt"
	"strings"

	"dsnet/internal/catalog"
	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/multipath"
	"dsnet/internal/netsim"
	"dsnet/internal/routing"
	"dsnet/internal/topology"
)

// Status is the outcome of one deadlock-freedom certification.
type Status uint8

// Certification outcomes.
const (
	StatusCertified Status = iota // CDG acyclic: deadlock-free (Dally–Seitz)
	StatusCyclic                  // CDG has a dependency cycle (witness attached)
	StatusError                   // instance or enumeration failed to build
)

// String names the status for reports.
func (s Status) String() string {
	switch s {
	case StatusCertified:
		return "certified"
	case StatusCyclic:
		return "cyclic"
	case StatusError:
		return "error"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// CheckResult is one invariant or totality check of a certification.
type CheckResult struct {
	Name   string // e.g. "invariant:diameter-bound", "totality:all-pairs"
	OK     bool
	Detail string // measured-vs-bound numbers, or the first violation
}

// Certificate is the full certification record of one combination.
type Certificate struct {
	Combo    string // stable identifier, e.g. "dsn-e-126/custom/3vc"
	Topology string
	Routing  string
	VCs      int // distinct channel classes in the CDG view

	// ExpectCyclic marks a known-negative combination: the certification
	// passes when the CDG is CYCLIC (with a witness), not acyclic.
	ExpectCyclic bool
	Doc          string // one-line rationale shown in reports

	Status   Status
	Channels int // distinct channels observed
	Deps     int // distinct dependencies observed
	Witness  []routing.ChannelHop
	Checks   []CheckResult
	Err      string
}

// CDGOK reports whether the deadlock-freedom verdict matches the
// combination's expectation (acyclic normally, cyclic for the
// known-negative).
func (c *Certificate) CDGOK() bool {
	if c.ExpectCyclic {
		return c.Status == StatusCyclic
	}
	return c.Status == StatusCertified
}

// OK reports whether the whole certification passed: the CDG verdict
// matches the expectation and every invariant/totality check holds.
func (c *Certificate) OK() bool {
	if c.Err != "" || !c.CDGOK() {
		return false
	}
	for _, ch := range c.Checks {
		if !ch.OK {
			return false
		}
	}
	return true
}

// FailedChecks returns the names of the checks that did not hold.
func (c *Certificate) FailedChecks() []string {
	var bad []string
	for _, ch := range c.Checks {
		if !ch.OK {
			bad = append(bad, ch.Name)
		}
	}
	return bad
}

// WitnessString formats the witness cycle as a -> b -> ... -> a, or ""
// when the certificate has none. The cycle is canonical (see
// routing.CDG.FindCycle), so the string is stable across runs.
func (c *Certificate) WitnessString() string {
	if len(c.Witness) == 0 {
		return ""
	}
	parts := make([]string, len(c.Witness))
	for i, h := range c.Witness {
		parts[i] = h.String()
	}
	return strings.Join(parts, " => ")
}

// Combo is one registered topology × routing × VC-assignment combination.
type Combo struct {
	Name         string
	Topology     string
	Routing      string
	VCs          int
	ExpectCyclic bool
	Doc          string
	Run          func() Certificate
}

// Options sizes the standard certification matrix. The defaults keep a
// full CertifyAll run within a few seconds while staying large enough
// that every structural feature (super nodes, Extra window, datelines)
// is exercised.
type Options struct {
	DSNEVSize int    // DSN-E/DSN-V size; must be a multiple of p
	BasicSize int    // basic DSN (known-negative) and DSN-D size
	TorusRows int    // DOR-dateline torus rows
	TorusCols int    // DOR-dateline torus cols
	DLNSize   int    // DLN-2-2 size for up*/down* and Duato escape
	DLNSeed   uint64 // DLN wiring seed
	VCs       int    // simulator VC budget for the adaptive combos
}

// DefaultOptions returns the standard matrix sizes.
func DefaultOptions() Options {
	return Options{
		DSNEVSize: 126, // p = 7, 126 % 7 == 0 as DSN-E requires
		BasicSize: 64,
		TorusRows: 8,
		TorusCols: 8,
		DLNSize:   64,
		DLNSeed:   7,
		VCs:       4,
	}
}

// finish records the CDG verdict on cert.
func finish(cert *Certificate, cdg *routing.CDG, err error) {
	if err != nil {
		cert.Status = StatusError
		cert.Err = err.Error()
		return
	}
	cert.Channels = cdg.Channels()
	cert.Deps = cdg.Dependencies()
	if cyc := cdg.FindCycle(); cyc != nil {
		cert.Status = StatusCyclic
		cert.Witness = cyc
		return
	}
	cert.Status = StatusCertified
}

// StandardCombos returns the registered certification matrix. The
// DOR, up*/down*, Duato, DSN VC and multipath combinations certify the
// netsim routers themselves (walkRouter); the DSN class combinations
// certify the paper's Section V.A channel classes over AppendRoute.
func StandardCombos(o Options) []*Combo {
	var combos []*Combo
	// add registers cb; body builds its CDG and checks, and an error
	// marks the certificate StatusError.
	add := func(cb *Combo, body func() (*routing.CDG, []CheckResult, error)) {
		cb.Run = func() Certificate {
			cert := Certificate{Combo: cb.Name, Topology: cb.Topology, Routing: cb.Routing,
				VCs: cb.VCs, ExpectCyclic: cb.ExpectCyclic, Doc: cb.Doc}
			cdg, checks, err := body()
			cert.Checks = checks
			finish(&cert, cdg, err)
			return cert
		}
		combos = append(combos, cb)
	}

	// DOR on a torus with the dateline VC split, at 2 and 4 VCs.
	for _, vcs := range []int{2, 4} {
		add(&Combo{
			Name:     fmt.Sprintf("torus%dx%d/dor-dateline/%dvc", o.TorusRows, o.TorusCols, vcs),
			Topology: fmt.Sprintf("torus %dx%d", o.TorusRows, o.TorusCols),
			Routing:  "dor-dateline",
			VCs:      vcs,
			Doc:      "dimension order + dateline VC switch breaks every ring cycle",
		}, func() (*routing.CDG, []CheckResult, error) {
			tor, err := topology.Torus2D(o.TorusRows, o.TorusCols)
			if err != nil {
				return nil, nil, err
			}
			rt, err := netsim.NewDORTorus(tor, vcs)
			if err != nil {
				return nil, nil, err
			}
			w := walkRouter(rt, tor.Graph(), vcs, nil, dorMinimal(tor))
			return w.cdg, []CheckResult{deliveryCheck("totality:dor", w)}, nil
		})
	}

	// Deterministic up*/down* and the Duato-style adaptive router on a
	// DLN-2-2 random graph and on the DSN basic graph
	// (topology-agnostic routing on the paper's topology).
	for _, gc := range graphCases(o)[:2] {
		add(&Combo{
			Name:     fmt.Sprintf("%s/updown/%dvc", gc.name, o.VCs),
			Topology: gc.topo,
			Routing:  "updown",
			VCs:      o.VCs,
			Doc:      "up*/down* link orientation is acyclic on every VC",
		}, func() (*routing.CDG, []CheckResult, error) {
			g, ud, err := gc.buildUpDown()
			if err != nil {
				return nil, nil, err
			}
			rt, err := netsim.NewUpDownOnly(g, o.VCs)
			if err != nil {
				return nil, nil, err
			}
			return walkRouter(rt, g, o.VCs, nil, nil).cdg, []CheckResult{CheckUpDownTotality(g, ud)}, nil
		})

		// Duato's theorem: the scheme is deadlock-free when the escape
		// subnetwork's CDG is acyclic and an escape channel is offered in
		// every reachable state. The escape network is the up*/down*
		// function on VC 0 alone.
		add(&Combo{
			Name:     fmt.Sprintf("%s/duato-escape/%dvc", gc.name, o.VCs),
			Topology: gc.topo,
			Routing:  "duato-adaptive",
			VCs:      o.VCs,
			Doc:      "adaptive VCs are unrestricted; certification covers the VC0 up*/down* escape layer (Duato)",
		}, func() (*routing.CDG, []CheckResult, error) {
			g, ud, err := gc.buildUpDown()
			if err != nil {
				return nil, nil, err
			}
			rt, err := netsim.NewDuatoUpDown(g, o.VCs)
			if err != nil {
				return nil, nil, err
			}
			w := walkRouter(rt, g, o.VCs, nil, duatoConsistent(g, routing.NewDistanceTable(g)))
			return w.cdg, []CheckResult{CheckUpDownTotality(g, ud), deliveryCheck("consistency:duato-adaptive", w)}, nil
		})
	}

	// DSN custom three-phase routing: the Section V.A deadlock-free
	// variants, at both the paper's channel-class view and the netsim VC
	// mapping, plus the known-negative basic variant.
	for _, variant := range []core.Variant{core.VariantE, core.VariantV} {
		lower := strings.ToLower(variant.String())
		build := func() (*core.DSN, error) {
			f, err := catalog.Build(catalog.Spec{Name: lower, N: o.DSNEVSize})
			return f.DSN, err
		}
		add(&Combo{
			Name:     fmt.Sprintf("%s-%d/custom/classes", lower, o.DSNEVSize),
			Topology: fmt.Sprintf("%s-%d", variant, o.DSNEVSize),
			Routing:  "dsn-custom",
			VCs:      len(dsnClassSet(variant)),
			Doc:      "Section V.A channel grouping (Theorem 3)",
		}, func() (*routing.CDG, []CheckResult, error) {
			d, err := build()
			if err != nil {
				return nil, nil, err
			}
			return dsnClassCert(d, d.AppendRoute)
		})

		add(&Combo{
			Name:     fmt.Sprintf("%s-%d/custom/3vc", lower, o.DSNEVSize),
			Topology: fmt.Sprintf("%s-%d", variant, o.DSNEVSize),
			Routing:  "dsn-custom",
			VCs:      3,
			Doc:      "netsim ClassVC mapping onto 3 simulator VCs (dedicated wires kept distinct)",
		}, func() (*routing.CDG, []CheckResult, error) {
			d, err := build()
			if err != nil {
				return nil, nil, err
			}
			rt, err := netsim.NewDSNSourceRouted(d)
			if err != nil {
				return nil, nil, err
			}
			return walkRouter(rt, d.Graph(), 3, nil, nil).cdg, []CheckResult{walkDSN(d, d.AppendRoute, false).check()}, nil
		})
	}

	// Known-negative: the basic DSN routing shares ring channels between
	// MAIN and the ring-shared FINISH phase; without a dedicated FINISH
	// class the dependency chain wraps the ring and closes a cycle.
	add(&Combo{
		Name:         fmt.Sprintf("dsn-%d/custom/ring-shared-finish", o.BasicSize),
		Topology:     fmt.Sprintf("DSN-%d-%d", core.CeilLog2(o.BasicSize)-1, o.BasicSize),
		Routing:      "dsn-custom",
		VCs:          3,
		ExpectCyclic: true,
		Doc:          "FINISH shares ring channels with MAIN: the CDG must wrap the ring (why DSN-E exists)",
	}, func() (*routing.CDG, []CheckResult, error) {
		d, err := core.New(o.BasicSize, core.CeilLog2(o.BasicSize)-1)
		if err != nil {
			return nil, nil, err
		}
		return dsnClassCert(d, d.AppendRoute)
	})

	// DSN-D short-aware routing reuses the plain ring classes for its
	// accelerated walks, so like the basic variant its CDG is cyclic; it
	// relies on DSN-E-style channels (or the simulator's escape layer)
	// for deadlock freedom in practice.
	add(&Combo{
		Name:         fmt.Sprintf("dsn-d-%d/custom-short/ring-shared-finish", o.BasicSize),
		Topology:     fmt.Sprintf("DSN-D-2 n=%d", o.BasicSize),
		Routing:      "dsn-custom-short",
		VCs:          4,
		ExpectCyclic: true,
		Doc:          "short-aware walks reuse ring classes across phases, so the ring cycle persists",
	}, func() (*routing.CDG, []CheckResult, error) {
		d, err := core.NewD(o.BasicSize, 2)
		if err != nil {
			return nil, nil, err
		}
		return dsnClassCert(d, appendShortAware(d))
	})

	// Source-routed multipath spraying over the same graph families and
	// the torus, at every table depth the simulator exposes. Deadlock
	// freedom is Duato's argument one more time: the sprayed path
	// channels ride the unrestricted adaptive VCs 1..VCs-1, so only the
	// VC0 up*/down* escape layer needs an acyclic CDG. The selector never
	// changes which channels a packet may occupy, only which offered
	// candidate wins; the walk drives the adaptive selector, which offers
	// every live path's head, so all three selectors share each
	// certificate.
	for _, gc := range graphCases(o) {
		for _, k := range []int{2, 4, 8} {
			add(&Combo{
				Name:     fmt.Sprintf("%s/multipath-k%d/%dvc", gc.name, k, o.VCs),
				Topology: gc.topo,
				Routing:  fmt.Sprintf("multipath-spray k=%d", k),
				VCs:      o.VCs,
				Doc:      "sprayed path channels ride unrestricted VCs; the VC0 up*/down* escape certifies deadlock freedom (selector-independent)",
			}, func() (*routing.CDG, []CheckResult, error) {
				g, ud, err := gc.buildUpDown()
				if err != nil {
					return nil, nil, err
				}
				rt, err := multipath.New(g, multipath.Config{K: k, VCs: o.VCs, Selector: multipath.SelectorAdaptive})
				if err != nil {
					return nil, nil, err
				}
				w := walkRouter(rt, g, o.VCs, nil, duatoConsistent(g, nil))
				return w.cdg, []CheckResult{
					CheckUpDownTotality(g, ud),
					deliveryCheck("consistency:duato-adaptive", w),
					CheckMultipathTotality(g, rt.Table()),
				}, nil
			})
		}
	}
	return combos
}

// dsnClassCert is the Section V.A class view of a DSN instance: its
// class-level CDG, the paper-bound invariants and route totality, from
// one walkDSN pass.
func dsnClassCert(d *core.DSN, route func(hops []core.Hop, s, t int) ([]core.Hop, error)) (*routing.CDG, []CheckResult, error) {
	w := walkDSN(d, route, true)
	if w.err != nil {
		return nil, nil, w.err
	}
	return w.cdg, append(DSNInvariants(d, w.maxLen), w.check()), nil
}

// graphCase is one graph family the topology-agnostic routers run on.
type graphCase struct {
	name, topo string
	build      func() (*graph.Graph, error)
}

// buildUpDown builds the graph and its up*/down* table rooted at 0,
// whose totality every topology-agnostic combination checks.
func (gc graphCase) buildUpDown() (*graph.Graph, *routing.UpDown, error) {
	g, err := gc.build()
	if err != nil {
		return nil, nil, err
	}
	ud, err := routing.NewUpDown(g, 0)
	return g, ud, err
}

// graphCases lists the DLN-2-2 random graph, the basic DSN graph and
// the torus, in that order.
func graphCases(o Options) []graphCase {
	return []graphCase{
		{
			name: fmt.Sprintf("dln-2-2-%d", o.DLNSize),
			topo: fmt.Sprintf("DLN-2-2 n=%d seed=%d", o.DLNSize, o.DLNSeed),
			build: func() (*graph.Graph, error) {
				return topology.DLNRandom(o.DLNSize, 2, 2, o.DLNSeed)
			},
		},
		{
			name: fmt.Sprintf("dsn-%d", o.BasicSize),
			topo: fmt.Sprintf("DSN-%d-%d graph", core.CeilLog2(o.BasicSize)-1, o.BasicSize),
			build: func() (*graph.Graph, error) {
				d, err := core.New(o.BasicSize, core.CeilLog2(o.BasicSize)-1)
				if err != nil {
					return nil, err
				}
				return d.Graph(), nil
			},
		},
		{
			name: fmt.Sprintf("torus%dx%d", o.TorusRows, o.TorusCols),
			topo: fmt.Sprintf("torus %dx%d", o.TorusRows, o.TorusCols),
			build: func() (*graph.Graph, error) {
				tor, err := topology.Torus2D(o.TorusRows, o.TorusCols)
				if err != nil {
					return nil, err
				}
				return tor.Graph(), nil
			},
		},
	}
}

// dsnClassSet lists the channel classes the routing of a variant uses.
func dsnClassSet(v core.Variant) []core.LinkClass {
	switch v {
	case core.VariantE, core.VariantV:
		return []core.LinkClass{
			core.ClassSucc, core.ClassPred, core.ClassShortcut,
			core.ClassUp, core.ClassExtraPred, core.ClassExtraSucc, core.ClassFinishSucc,
		}
	case core.VariantD:
		return []core.LinkClass{core.ClassSucc, core.ClassPred, core.ClassShortcut, core.ClassShort}
	default:
		return []core.LinkClass{core.ClassSucc, core.ClassPred, core.ClassShortcut}
	}
}

// CertifyAll runs every registered combination and returns the
// certificates in registration order.
func CertifyAll(o Options) []Certificate {
	combos := StandardCombos(o)
	certs := make([]Certificate, 0, len(combos))
	for _, cb := range combos {
		certs = append(certs, cb.Run())
	}
	return certs
}
