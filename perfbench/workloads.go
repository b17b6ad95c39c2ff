package main

import (
	"fmt"

	"dsnet/internal/analysis"
	"dsnet/internal/chaos"
	"dsnet/internal/collectives"
	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/harness"
	"dsnet/internal/layout"
	"dsnet/internal/multipath"
	"dsnet/internal/netsim"
	"dsnet/internal/recovery"
	"dsnet/internal/traffic"
	"dsnet/internal/verify"
)

// workload is one named benchmark input: a fixed list of cells generated
// from the workload seed. plan builds one pass's cells; inputs a sweep
// driver builds once per sweep (graphs, DAGs, fault scenarios) are built
// there under their layer spans, and each cell then builds its own
// routers, certificates and simulator, as the harness cell contract asks.
type workload struct {
	name string
	why  string
	plan func(tr *tracer, seed uint64) ([]harness.Cell[cellOut], error)
}

var workloads = []workload{
	{
		name: "fig10-openloop",
		why:  "Fig. 10: Torus, RANDOM and DSN at 64 switches, uniform open-loop load from near idle to just below the knee; the pure VCT cycle loop, no faults, recovery, multipath or replay",
		plan: planFig10,
	},
	{
		name: "allreduce-replay",
		why:  "ring and halving-doubling allreduce replayed closed-loop on DSN and torus; halving-doubling is contention-bound, ring exercises the replay release path",
		plan: planAllreduce,
	},
	{
		name: "chaos-resilience",
		why:  "DSN-V chaos target, custom and k=4 multipath routers, link-burst and cabinet-outage faults, live and drain recovery, VCT and wormhole; certification-heavy",
		plan: planChaos,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cellOut is the cached value of one cell: its deterministic outputs and
// the verdict of its checks. Host timings are kept in the tracer and
// never enter it.
type cellOut struct {
	Label    string
	Engine   string // "vct" or "wormhole"
	Switches int
	Cycles   int64  // simulated cycles
	Digest   string // fingerprint of every deterministic output
	Fail     string // first check the cell tripped, "" when clean

	Generated, Delivered int64
	Escape               float64
	Retried, Lost        int64
	Detected             int64
	AbortedFlits         int64
	DrainPaused          int64
	OutOfOrder           int64
	Paths                int64 // multipath table paths
	Messages             int64 // replayed collective messages
	FaultEvents          int64
	Epochs               int64 // certified fault epochs, all timelines
	AcyclicEpochs        int64
	CDGDeps              int64
}

// cellSpec is what the benchmark knows about a cell before running it.
type cellSpec struct {
	key    harness.CellKey
	label  string
	engine string
	body   func(tr *tracer) (cellOut, error)
}

// cells wraps specs as harness cells whose work is traced under a cell
// span, each preceded by the speed probe. A cell never returns an error: construction and check failures
// are recorded in cellOut.Fail, so one bad cell does not stop the pass
// (the harness stops dispatching after the first cell error).
func cells(tr *tracer, specs []cellSpec) []harness.Cell[cellOut] {
	out := make([]harness.Cell[cellOut], len(specs))
	for i, sp := range specs {
		out[i] = harness.Cell[cellOut]{Key: sp.key, Run: func() (cellOut, error) {
			tr.probe()
			tr.beginCell(i)
			defer tr.end()
			res, err := sp.body(tr)
			res.Label, res.Engine = sp.label, sp.engine
			if err != nil && res.Fail == "" {
				res.Fail = "setup: " + err.Error()
			}
			return res, nil
		}}
	}
	return out
}

// simulator is the part of both netsim engines a cell drives.
type simulator interface {
	SetFaultPlan(*netsim.FaultPlan) error
	SetMonitors(netsim.Monitors) error
	SetRecovery(recovery.Config) error
	Run() (netsim.Result, error)
}

// runSim runs sim under the engine's run span and applies the checks
// every cell shares: no monitor violation or watchdog trip, and every
// confirmed deadlock resolved one way.
func runSim(tr *tracer, engine string, sim simulator, out *cellOut) netsim.Result {
	name := spanRunVCT
	if engine == "wormhole" {
		name = spanRunWormhole
	}
	tr.begin(name)
	res, err := sim.Run()
	tr.end()
	out.Generated, out.Delivered = res.GeneratedTotal, res.DeliveredTotal
	out.Retried, out.Lost = res.Retried, res.Lost
	out.Detected, out.AbortedFlits, out.DrainPaused = res.DeadlocksDetected, res.AbortedFlits, res.DrainPausedCycles
	out.OutOfOrder = res.OutOfOrder
	if engine == "vct" {
		out.Escape = res.EscapeFraction
	}
	switch mon, ok := netsim.ViolatedMonitor(err); {
	case ok:
		out.Fail = "monitor " + mon + ": " + err.Error()
	case err != nil:
		out.Fail = "run: " + err.Error()
	case res.DeadlocksDetected != res.DeadlocksRecovered+res.DeadlocksReleased+res.DeadlocksLost:
		out.Fail = fmt.Sprintf("recovery identity: detected %d != recovered %d + released %d + lost %d",
			res.DeadlocksDetected, res.DeadlocksRecovered, res.DeadlocksReleased, res.DeadlocksLost)
	}
	return res
}

// keyFor starts a cell key carrying the graph and simulator-config
// fingerprints, so the workload fingerprint covers every input.
func keyFor(w string, g *graph.Graph, cfg netsim.Config) harness.CellKey {
	k := harness.NewKey("perfbench/" + w)
	k.N, k.Seed = g.N(), cfg.Seed
	k.Params = []harness.Param{
		harness.P("graph", harness.GraphFingerprint(g)),
		harness.P("cfg", harness.SimConfigFingerprint(cfg)),
	}
	return k
}

// ---- fig10-openloop ----

// fig10Rates are offered loads in flits/cycle/host: near idle, moderate,
// and just below the knee (DSN-64 saturates near 0.18). No rung is past
// saturation: there host queues grow without bound and host time would
// follow backlog length instead of simulator cost.
var fig10Rates = []float64{0.01, 0.08, 0.15}

// fig10Config shortens the paper's measurement schedule so a pass takes
// a few host seconds; every other parameter is the paper's.
func fig10Config(seed uint64) netsim.Config {
	cfg := netsim.Default()
	cfg.Seed = seed
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 2000, 4000, 4000
	return cfg
}

func planFig10(tr *tracer, seed uint64) ([]harness.Cell[cellOut], error) {
	return fig10Cells(tr, fig10Config(seed), fig10Rates, seed)
}

// fig10Cells builds the Fig. 10 grid (topologies x rates) exactly as
// analysis.Fig10CurvesWith does for the uniform pattern, with the
// conservation monitor armed on top.
func fig10Cells(tr *tracer, cfg netsim.Config, rates []float64, seed uint64) ([]harness.Cell[cellOut], error) {
	graphs, err := timed(tr, spanTopology, func() (map[string]*graph.Graph, error) {
		return analysis.BuildComparison(64, seed)
	})
	if err != nil {
		return nil, err
	}
	var specs []cellSpec
	for _, name := range analysis.Names {
		g := graphs[name]
		for _, rate := range rates {
			key := keyFor("fig10-openloop", g, cfg)
			key.Topo, key.Routing, key.Switching, key.Pattern, key.Rate = name, "adaptive", "vct", "uniform", rate
			specs = append(specs, cellSpec{
				key:    key,
				label:  fmt.Sprintf("%s/rate=%g", name, rate),
				engine: "vct",
				body: func(tr *tracer) (cellOut, error) {
					out := cellOut{Switches: g.N(), Cycles: cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles}
					rt, err := timed(tr, spanRouting, func() (netsim.Router, error) { return netsim.NewDuatoUpDown(g, cfg.VCs) })
					if err != nil {
						return out, err
					}
					sim, err := timed(tr, spanSimNew, func() (*netsim.Sim, error) {
						pat, err := analysis.PatternFor("uniform", g.N(), cfg.HostsPerSwitch)
						if err != nil {
							return nil, err
						}
						sim, err := netsim.NewSim(cfg, g, rt, pat, rate)
						if err != nil {
							return nil, err
						}
						return sim, sim.SetMonitors(netsim.Monitors{Conservation: true})
					})
					if err != nil {
						return out, err
					}
					res := runSim(tr, "vct", sim, &out)
					out.Digest = harness.Fingerprint(res)
					return out, nil
				},
			})
		}
	}
	return cells(tr, specs), nil
}

// ---- allreduce-replay ----

// allreduceSwitches is the fabric size. Section VII's 64-switch fabric
// does not fit the run length: one halving-doubling replay there takes
// about 14 host seconds, so a pass could not repeat within a run.
const allreduceSwitches = 16

// allreduceReps is the number of seeded rank placements per (topology,
// algorithm); more placements average out how much one placement
// happens to contend.
const allreduceReps = 4

var (
	allreduceTopos = []string{"DSN", "Torus"}
	allreduceAlgos = []string{"ring", "halving-doubling"}
)

func allreduceConfig(seed uint64) netsim.Config {
	cfg := netsim.Default()
	cfg.Seed = seed
	return cfg
}

func planAllreduce(tr *tracer, seed uint64) ([]harness.Cell[cellOut], error) {
	return allreduceCells(tr, allreduceConfig(seed), allreduceSwitches, allreduceReps, seed)
}

// allreduceCells builds one cell per (topology, algorithm, placement)
// with one-packet chunks. Placement r permutes ranks with seed
// seed+r*0x9e37, the scheme analysis.CollectiveSweepWith uses.
func allreduceCells(tr *tracer, cfg netsim.Config, n, reps int, seed uint64) ([]harness.Cell[cellOut], error) {
	graphs := make([]*graph.Graph, len(allreduceTopos))
	for i, name := range allreduceTopos {
		g, err := timed(tr, spanTopology, func() (*graph.Graph, error) { return analysis.BuildTopology(name, n, seed) })
		if err != nil {
			return nil, err
		}
		graphs[i] = g
	}
	dags := make([]*collectives.DAG, len(allreduceAlgos))
	for i, algo := range allreduceAlgos {
		d, err := timed(tr, spanDAG, func() (*collectives.DAG, error) {
			return collectives.Generate("allreduce", algo, n*cfg.HostsPerSwitch, cfg.PacketFlits)
		})
		if err != nil {
			return nil, err
		}
		dags[i] = d
	}
	var specs []cellSpec
	for ti, name := range allreduceTopos {
		g := graphs[ti]
		for _, d := range dags {
			for rep := 0; rep < reps; rep++ {
				placement := seed + uint64(rep)*0x9e37
				key := keyFor("allreduce-replay", g, cfg)
				key.Topo, key.Routing, key.Switching, key.Pattern = name, "adaptive", "vct", d.Collective
				key.Params = append(key.Params, harness.P("algo", d.Algo), harness.Pd("chunk", int64(cfg.PacketFlits)),
					harness.Pd("placement", int64(placement)))
				specs = append(specs, cellSpec{
					key:    key,
					label:  fmt.Sprintf("%s/%s/rep=%d", name, d.Algo, rep),
					engine: "vct",
					body: func(tr *tracer) (cellOut, error) {
						out := cellOut{Switches: g.N()}
						tr.begin(spanDAG)
						replay := collectives.ToReplay(d.Permuted(placement))
						tr.end()
						out.Messages = int64(len(replay.Messages))
						rt, err := timed(tr, spanRouting, func() (netsim.Router, error) { return netsim.NewDuatoUpDown(g, cfg.VCs) })
						if err != nil {
							return out, err
						}
						sim, err := timed(tr, spanSimNew, func() (*netsim.Sim, error) {
							sim, err := netsim.NewSimReplay(cfg, g, rt, replay)
							if err != nil {
								return nil, err
							}
							return sim, sim.SetMonitors(netsim.Monitors{Conservation: true})
						})
						if err != nil {
							return out, err
						}
						res := runSim(tr, "vct", sim, &out)
						out.Cycles = res.MakespanCycles
						if out.Fail == "" && !res.ReplayCompleted {
							out.Fail = fmt.Sprintf("replay incomplete: %d of %d messages delivered", res.ReplayDelivered, res.ReplayMessages)
						}
						out.Digest = harness.Fingerprint(res, out.Messages)
						return out, nil
					},
				})
			}
		}
	}
	return cells(tr, specs), nil
}

// ---- chaos-resilience ----

// chaosSwitches is the DSN-V fabric size. The chaos target's 60-switch
// fabric costs about 3 host seconds per cabinet-outage cell, mostly
// certification; 36 keeps a pass to a few seconds and still gives the
// rolling outage three cabinets (72 fault events).
const chaosSwitches = 36

// chaosConfig is the chaos engine's default simulator set-up with a
// shorter schedule; faults land inside the measurement window and are
// all repaired before the drain.
func chaosConfig(seed uint64) netsim.Config {
	cfg := chaos.DefaultOptions().Cfg
	cfg.Seed = seed
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 2000, 8000, 10000
	return cfg
}

// chaosCase is one cell of the chaos grid.
type chaosCase struct {
	multipath bool
	kind      chaos.Kind
	drain     bool
	wormhole  bool
}

// chaosCases is a half fraction of the 2^4 grid router x scenario x
// recovery mode x engine: the engine is the parity of the other three
// factors. Every level of every factor appears in four cells and every
// pair of factors meets in all four combinations, at half the host time
// of the full grid.
func chaosCases() []chaosCase {
	var cs []chaosCase
	for _, mp := range []bool{false, true} {
		for _, kind := range []chaos.Kind{chaos.Burst, chaos.RollingCabinets} {
			for _, drain := range []bool{false, true} {
				cab := kind == chaos.RollingCabinets
				cs = append(cs, chaosCase{multipath: mp, kind: kind, drain: drain, wormhole: mp != cab != drain})
			}
		}
	}
	return cs
}

func planChaos(tr *tracer, seed uint64) ([]harness.Cell[cellOut], error) {
	return chaosCells(tr, chaosConfig(seed), chaosSwitches, chaosCases(), seed)
}

// chaosFabric is the shared input of a chaos pass.
type chaosFabric struct {
	target chaos.Target
	dsn    *core.DSN // the DSN-V instance behind the target, for certification
}

func chaosCells(tr *tracer, cfg netsim.Config, n int, cases []chaosCase, seed uint64) ([]harness.Cell[cellOut], error) {
	fab, err := timed(tr, spanTopology, func() (chaosFabric, error) {
		t, err := chaos.BuildTarget("dsn-v-custom", n)
		if err != nil {
			return chaosFabric{}, err
		}
		d, err := core.NewV(n)
		return chaosFabric{target: t, dsn: d}, err
	})
	if err != nil {
		return nil, err
	}
	g := fab.target.Graph
	window := chaos.Window{Start: cfg.WarmupCycles, End: cfg.WarmupCycles + cfg.MeasureCycles}
	plans, err := timed(tr, spanScenario, func() (map[chaos.Kind]*netsim.FaultPlan, error) {
		l, err := layout.New(n, layout.DefaultConfig())
		if err != nil {
			return nil, err
		}
		plans := map[chaos.Kind]*netsim.FaultPlan{}
		for _, kind := range []chaos.Kind{chaos.Burst, chaos.RollingCabinets} {
			if plans[kind], err = chaos.Generate(g, l, kind, window, seed); err != nil {
				return nil, err
			}
		}
		return plans, nil
	})
	if err != nil {
		return nil, err
	}
	rc := chaos.RecoveredReplayConfig()
	hol := chaos.DefaultOptions().HOLBound
	var specs []cellSpec
	for _, c := range cases {
		t, routing := fab.target, "dsn-custom"
		if c.multipath {
			if t, err = chaos.ArmMultipath(fab.target, 4, multipath.SelectorAdaptive, cfg.VCs, seed); err != nil {
				return nil, err
			}
			routing = "mp-adaptive-k4"
		}
		plan := plans[c.kind]
		engine, recoveryMode := "vct", "live"
		if c.wormhole {
			engine = "wormhole"
		}
		if c.drain {
			recoveryMode = "drain"
		}
		key := keyFor("chaos-resilience", g, cfg)
		key.Topo, key.Routing, key.Switching, key.Pattern, key.Rate = t.Name, routing, engine, "uniform", t.SafeRate
		key.Params = append(key.Params, harness.P("scenario", c.kind.String()),
			harness.P("plan", harness.FaultPlanFingerprint(plan)), harness.P("recovery", recoveryMode))
		specs = append(specs, cellSpec{
			key:    key,
			label:  fmt.Sprintf("%s/%s/%s/%s", routing, c.kind, recoveryMode, engine),
			engine: engine,
			body: func(tr *tracer) (cellOut, error) {
				out := cellOut{Switches: g.N(), Cycles: cfg.WarmupCycles + cfg.MeasureCycles + cfg.DrainCycles,
					FaultEvents: int64(len(plan.Events))}
				span := spanRouting
				if c.multipath {
					span = spanMultipath
				}
				rt, err := timed(tr, span, t.NewRouter)
				if err != nil {
					return out, err
				}
				certs, err := timed(tr, spanCertify, func() (certSummary, error) {
					return certifyChaos(g, fab.dsn, rt, plan, cfg.VCs)
				})
				if err != nil {
					return out, err
				}
				out.Epochs, out.AcyclicEpochs, out.CDGDeps = certs.epochs, certs.acyclic, certs.deps
				if mp, ok := rt.(*multipath.Router); ok {
					for _, ps := range mp.Table().Sets {
						out.Paths += int64(len(ps.Paths))
					}
				}
				sim, err := timed(tr, spanSimNew, func() (simulator, error) {
					return newChaosSim(cfg, t, rt, plan, rc, c.drain, c.wormhole, hol)
				})
				if err != nil {
					return out, err
				}
				res := runSim(tr, engine, sim, &out)
				if out.Fail == "" {
					out.Fail = certs.fail
				}
				out.Digest = harness.Fingerprint(res, certs.verdicts, out.Paths)
				return out, nil
			},
		})
	}
	return cells(tr, specs), nil
}

// newChaosSim builds the engine the chaos driver would (chaos.Engine.RunPlan)
// with recovery armed and the conservation, head-of-line and hop-TTL
// monitors on.
func newChaosSim(cfg netsim.Config, t chaos.Target, rt netsim.Router, plan *netsim.FaultPlan,
	rc recovery.Config, drain, wormhole bool, hol int64) (simulator, error) {
	pat := traffic.Uniform{Hosts: t.Graph.N() * cfg.HostsPerSwitch}
	var sim simulator
	var err error
	if wormhole {
		sim, err = netsim.NewWormSim(cfg, t.Graph, rt, pat, t.SafeRate)
	} else {
		sim, err = netsim.NewSim(cfg, t.Graph, rt, pat, t.SafeRate)
	}
	if err != nil {
		return nil, err
	}
	if err := sim.SetFaultPlan(plan); err != nil {
		return nil, err
	}
	rc.DrainOnFault = drain
	if err := sim.SetRecovery(rc); err != nil {
		return nil, err
	}
	return sim, sim.SetMonitors(netsim.Monitors{Conservation: true, MaxHOLWaitCycles: hol, HopTTL: int32(t.HopTTL)})
}

// certSummary condenses the per-epoch certificates of one chaos cell.
type certSummary struct {
	verdicts []string // one line per certificate: combo, status, channels, deps, checks
	epochs   int64
	acyclic  int64
	deps     int64
	fail     string // first certification check that failed, "" when clean
}

// certifyChaos certifies, at every fault epoch of plan, the cell's
// degraded routing tables and the recovery escape network. The DSN
// custom router's ring detours may legitimately make the degraded CDG
// cyclic (the transport timeout is its backstop), so its verdicts are
// recorded, not required; the multipath escape and the recovery escape
// must stay acyclic. Every timeline must end on its pristine certificate,
// since both scenario kinds repair everything they break.
func certifyChaos(g *graph.Graph, d *core.DSN, rt netsim.Router, plan *netsim.FaultPlan, vcs int) (certSummary, error) {
	var sum certSummary
	routes := func(edgeDead, swDead []bool) verify.Certificate {
		return verify.CertifyDegradedDSN(d, edgeDead, swDead)
	}
	mustAcyclic := false
	if mp, ok := rt.(*multipath.Router); ok {
		tab := mp.Table()
		routes = func(edgeDead, swDead []bool) verify.Certificate {
			return verify.CertifyDegradedMultipath(g, tab, edgeDead, swDead, vcs)
		}
		mustAcyclic = true
	}
	tables, err := verify.CertifyFaultTimeline(g, plan, routes)
	if err != nil {
		return sum, err
	}
	escape, err := verify.CertifyRecoveryTimeline(g, plan, vcs)
	if err != nil {
		return sum, err
	}
	for _, tl := range []struct {
		entries     []verify.TimelineEntry
		mustAcyclic bool
	}{{tables, mustAcyclic}, {escape, true}} {
		for _, e := range tl.entries {
			c := &e.Cert
			sum.epochs++
			sum.deps += int64(c.Deps)
			if c.Status == verify.StatusCertified {
				sum.acyclic++
			}
			sum.verdicts = append(sum.verdicts, fmt.Sprintf("%s %d %s ch=%d deps=%d failed=%v",
				c.Combo, e.Index, c.Status, c.Channels, c.Deps, c.FailedChecks()))
			if sum.fail != "" {
				continue
			}
			switch {
			case c.Status == verify.StatusError:
				sum.fail = fmt.Sprintf("certify %s epoch %d: %s", c.Combo, e.Index, c.Err)
			case tl.mustAcyclic && !c.OK():
				sum.fail = fmt.Sprintf("certify %s epoch %d: %s %v", c.Combo, e.Index, c.Status, c.FailedChecks())
			}
		}
		first, last := tl.entries[0].Cert, tl.entries[len(tl.entries)-1].Cert
		if sum.fail == "" && !verify.SameCertificate(&first, &last) {
			sum.fail = fmt.Sprintf("certify %s: repaired fabric does not restore the pristine certificate", first.Combo)
		}
	}
	return sum, nil
}
