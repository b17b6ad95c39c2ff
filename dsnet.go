// Package dsnet is the public API of the Distributed Shortcut Networks
// library, a reproduction of "Distributed Shortcut Networks: Layout-aware
// Low-degree Topologies Exploiting Small-world Effect" (ICPP 2013).
//
// It re-exports the internal building blocks as one coherent surface:
//
//   - DSN topology construction and its custom three-phase routing
//     (NewDSN, NewDSNE, NewDSNV, NewDSND, NewFlexibleDSN,
//     NewBidirectionalDSN), including the overshoot-free variant and the
//     stateless switch-local implementation
//   - baseline topologies (Ring, DLN, DLNRandom, Torus2D, Torus3D,
//     Kleinberg, Hypercube, CCC, DeBruijn, Kautz)
//   - graph analysis (diameter, ASPL, clustering, small-world sigma,
//     edge betweenness, edge connectivity, weighted shortest paths)
//   - the machine-room layout, cable-length and cost models of Section
//     VI.B, plus simulated-annealing placement optimization
//   - the cycle-accurate simulators of Section VII (virtual cut-through
//     and wormhole) with five routing functions
//   - the collective-communication workload engine: message-DAG models
//     of allreduce/allgather/broadcast/reduce/all-to-all and a
//     closed-loop replay mode reporting collective makespans
//   - the experiment drivers regenerating Figures 7-10 and the
//     extension experiments recorded in EXPERIMENTS.md
//   - the static verification subsystem (CertifyAll): deadlock
//     certification via channel-dependency-graph acyclicity, the
//     paper-theorem bounds as executable checks, routing-table
//     totality, and fault-degraded re-certification — the engine behind
//     cmd/dsnverify and the certification matrix in EXPERIMENTS.md
//
// See examples/ for runnable walk-throughs and EXPERIMENTS.md for the
// paper-vs-measured record.
package dsnet

import (
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
	"dsnet/internal/routing"
	"dsnet/internal/search"
	"dsnet/internal/stats"
	"dsnet/internal/topology"
	"dsnet/internal/traffic"
	"dsnet/internal/verify"
)

// Graph is the shared interconnect graph representation.
type Graph = graph.Graph

// Edge kinds of generated topologies.
type EdgeKind = graph.EdgeKind

// PathMetrics aggregates all-pairs shortest-path statistics.
type PathMetrics = graph.PathMetrics

// DSN is a Distributed Shortcut Network instance (the paper's primary
// contribution).
type DSN = core.DSN

// FlexDSN is the flexible-size DSN of Section V.C.
type FlexDSN = core.FlexDSN

// BiDSN is the degree-6 bidirectional DSN (two mirrored shortcut
// ladders), realizing the Section VI.B degree-6 remark.
type BiDSN = core.BiDSN

// Route is a path produced by the DSN custom routing algorithm.
type Route = core.Route

// Hop is one link traversal of a Route.
type Hop = core.Hop

// Phase labels the three stages of the custom routing algorithm.
type Phase = core.Phase

// LinkClass identifies the channel class of a hop (Section V.A).
type LinkClass = core.LinkClass

// NumClasses is the number of LinkClass values, the class count of a
// CDG over DSN routes.
const NumClasses = core.NumClasses

// Torus is a k-ary n-dimensional torus or mesh.
type Torus = topology.Torus

// Kleinberg is Kleinberg's small-world grid.
type Kleinberg = topology.Kleinberg

// LayoutConfig holds the machine-room model constants.
type LayoutConfig = layout.Config

// Layout places switches into cabinets on the floorplan.
type Layout = layout.Layout

// CableStats summarizes a topology's cabling requirements.
type CableStats = layout.CableStats

// CostModel prices an interconnect (Section VI.B economy argument).
type CostModel = layout.CostModel

// CostReport itemizes the interconnect cost of one topology.
type CostReport = layout.CostReport

// Placement is a switch-to-cabinet assignment (see OptimizePlacement).
type Placement = layout.Placement

// SimConfig holds the cycle-accurate simulator parameters.
type SimConfig = netsim.Config

// Sim is one simulator instance, under virtual cut-through (NewSim) or
// wormhole (NewWormSim) switching. SetReplay, SetCableDelays,
// SetFaultPlan, SetMonitors and SetRecovery configure it before Run.
type Sim = netsim.Sim

// SimResult aggregates one simulation run.
type SimResult = netsim.Result

// Router supplies next-hop candidates to the simulator.
type Router = netsim.Router

// TrafficPattern draws packet destinations.
type TrafficPattern = traffic.Pattern

// UpDown is the up*/down* routing used for escape paths.
type UpDown = routing.UpDown

// DistanceTable holds all-pairs hop distances.
type DistanceTable = routing.DistanceTable

// CDG is a channel dependency graph for deadlock analysis.
type CDG = routing.CDG

// ChannelHop is one traversal of a directed channel.
type ChannelHop = routing.ChannelHop

// LatencyCurve is one series of Figure 10.
type LatencyCurve = analysis.LatencyCurve

// PathRow is one network size of Figures 7-8.
type PathRow = analysis.PathRow

// CableRow is one network size of Figure 9.
type CableRow = analysis.CableRow

// BalanceResult summarizes routing traffic balance.
type BalanceResult = analysis.BalanceResult

// BottleneckRow summarizes a topology's theoretical load concentration.
type BottleneckRow = analysis.BottleneckRow

// FaultRow summarizes resilience to random link failures.
type FaultRow = analysis.FaultRow

// DegradationRow is one point of the live-fault degradation experiment.
type DegradationRow = analysis.DegradationRow

// FaultPlan is a deterministic schedule of link/switch failures (and
// repairs) applied during a simulation run.
type FaultPlan = netsim.FaultPlan

// FaultEvent is one scheduled fault or repair.
type FaultEvent = netsim.FaultEvent

// FaultAware is implemented by routers that adapt to fabric faults.
type FaultAware = netsim.FaultAware

// CollectiveDAG is a collective-communication workload modeled as a
// message DAG (ring/halving-doubling allreduce, binomial broadcast and
// reduce, ring allgather, pairwise all-to-all). It embeds the Replay it
// runs; its messages are ReplayMessages, shared read-only by every run.
type CollectiveDAG = collectives.DAG

// Replay is a closed-loop workload executed by the simulators: injection
// of each message is gated on the delivery of its dependencies, and the
// run reports the makespan with a per-phase breakdown.
type Replay = netsim.Replay

// ReplayMessage is one dependency-gated message of a Replay.
type ReplayMessage = netsim.ReplayMessage

// CollectiveRow summarizes closed-loop collective replays on one
// (topology, routing) pair.
type CollectiveRow = analysis.CollectiveRow

// RelatedRow is one entry of the Section III related-work comparison.
type RelatedRow = analysis.RelatedRow

// SwitchingPoint compares VCT and wormhole switching at one load.
type SwitchingPoint = analysis.SwitchingPoint

// PhysicalRow is one size of the analytic end-to-end latency model.
type PhysicalRow = analysis.PhysicalRow

// ThroughputRow is the paper's saturation-throughput metric.
type ThroughputRow = analysis.ThroughputRow

// LadderRow is one setting of the DSN-x ladder ablation.
type LadderRow = analysis.LadderRow

// PhysicalConst holds the Section I timing constants (100 ns switch,
// 5 ns/m cable).
type PhysicalConst = analysis.PhysicalConst

// DSN constructors (Sections IV and V).
var (
	NewDSN              = core.New
	NewDSNE             = core.NewE
	NewDSNV             = core.NewV
	NewDSND             = core.NewD
	NewFlexibleDSN      = core.NewFlexible
	NewBidirectionalDSN = core.NewBidirectional
	CeilLog2            = core.CeilLog2
)

// DSN family variants.
const (
	VariantBasic = core.VariantBasic
	VariantE     = core.VariantE
	VariantV     = core.VariantV
	VariantD     = core.VariantD
)

// Baseline topology generators (Section VI comparisons and related work).
var (
	NewRing          = topology.Ring
	NewDLN           = topology.DLN
	NewDLNRandom     = topology.DLNRandom
	NewRandomRegular = topology.RandomRegular
	NewTorus         = topology.NewTorus
	NewTorus2D       = topology.Torus2D
	NewTorus2DFor    = topology.Torus2DFor
	NewTorus3D       = topology.Torus3D
	NewMesh2D        = topology.Mesh2D
	NewKleinberg     = topology.NewKleinberg
	NewHypercube     = topology.Hypercube
	NewCCC           = topology.CCC
	NewDeBruijn      = topology.DeBruijn
	NewKautz         = topology.Kautz
	NewDragonfly     = topology.NewDragonfly
	NewFlattenedBfly = topology.FlattenedButterfly
	NearSquareDims   = topology.NearSquareDims
)

// Dragonfly is the high-radix topology of Kim et al. [4].
type Dragonfly = topology.Dragonfly

// Routing machinery.
var (
	NewUpDown        = routing.NewUpDown
	NewDistanceTable = routing.NewDistanceTable
	NewDOR           = routing.NewDOR
	NewCDG           = routing.NewCDG
)

// Layout model (Section VI.B).
var (
	NewLayout           = layout.New
	DefaultLayoutConfig = layout.DefaultConfig
	DefaultCostModel    = layout.DefaultCostModel
	AverageCableLength  = layout.AverageCableLength
)

// Simulator (Section VII).
var (
	DefaultSimConfig   = netsim.Default
	NewSim             = netsim.NewSim
	NewSimReplay       = netsim.NewSimReplay
	NewWormSim         = netsim.NewWormSim
	NewDuatoUpDown     = netsim.NewDuatoUpDown
	NewUpDownOnly      = netsim.NewUpDownOnly
	NewDSNSourceRouted = netsim.NewDSNSourceRouted
	// NewDSNSourceRoutedUnsafe drives the simulator with the BASIC
	// variant's channel classes, which deadlock under load — it exists to
	// demonstrate why Section V.A matters.
	NewDSNSourceRoutedUnsafe = netsim.NewDSNSourceRoutedUnsafe
	NewDORTorusRouter        = netsim.NewDORTorus
	NewValiant               = netsim.NewValiant
)

// Fault injection (live link/switch failures during simulation).
var (
	NewFaultPlan     = netsim.NewFaultPlan
	RandomLinkFaults = netsim.RandomLinkFaults
	LinkDown         = netsim.LinkDown
	LinkUp           = netsim.LinkUp
	SwitchDown       = netsim.SwitchDown
	SwitchUp         = netsim.SwitchUp
)

// Traffic patterns (Section VII.A plus HPC application workloads).
var (
	NewBitReversal = traffic.NewBitReversal
	NewNeighboring = traffic.NewNeighboring
	NewTranspose   = traffic.NewTranspose
	NewShuffle     = traffic.NewShuffle
	NewStencil2D   = traffic.NewStencil2D
	NewAllToAll    = traffic.NewAllToAll
	NewTornado     = traffic.NewTornado
)

// Graph serialization.
var (
	// ParseGraph reads the text edge-list format produced by
	// (*Graph).WriteTo.
	ParseGraph = graph.Parse
)

// Collective workloads (closed-loop replay; see internal/collectives).
var (
	// GenerateCollective builds a collective's message DAG by name; an
	// empty algo selects the collective's default algorithm.
	GenerateCollective = collectives.Generate
	// CollectiveReplay converts a CollectiveDAG into the Replay the
	// simulator executes (NewSimReplay, or (*Sim).SetReplay).
	CollectiveReplay = collectives.ToReplay
	// CollectiveNames lists the supported collectives.
	CollectiveNames = collectives.Collectives
	// DefaultCollectiveAlgo maps a collective to its default algorithm.
	DefaultCollectiveAlgo = collectives.DefaultAlgo
	// Collective DAG constructors for non-default roots/algorithms.
	NewRingAllReduce            = collectives.RingAllReduce
	NewHalvingDoublingAllReduce = collectives.HalvingDoublingAllReduce
	NewBinomialBroadcast        = collectives.BinomialBroadcast
	NewBinomialReduce           = collectives.BinomialReduce
	NewRingAllGather            = collectives.RingAllGather
	NewPairwiseAllToAll         = collectives.PairwiseAllToAll
)

// NewUniform returns the uniform random traffic pattern.
func NewUniform(hosts int) TrafficPattern { return traffic.Uniform{Hosts: hosts} }

// NewHotspot returns a hotspot pattern sending fraction of traffic to hot.
func NewHotspot(hosts, hot int, fraction float64) TrafficPattern {
	return traffic.Hotspot{Hosts: hosts, Hot: hot, Fraction: fraction}
}

// Experiment drivers (Figures 7-10). The sweeps take a context and a
// runner first; a nil runner runs on DefaultSweepRunner().
var (
	BuildComparison       = analysis.BuildComparison
	PathSweep             = analysis.PathSweep
	CableSweep            = analysis.CableSweep
	LatencySweep          = analysis.LatencySweep
	Fig10Curves           = analysis.Fig10Curves
	BalanceComparison     = analysis.BalanceComparison
	BottleneckSweep       = analysis.BottleneckSweep
	FaultSweep            = analysis.FaultSweep
	DegradationSweep      = analysis.DegradationSweep
	RelatedWork           = analysis.RelatedWork
	SwitchingComparison   = analysis.SwitchingComparison
	PhysicalLatencySweep  = analysis.PhysicalLatencySweep
	LadderSweep           = analysis.LadderSweep
	WriteLadderTable      = analysis.WriteLadderTable
	SaturationThroughput  = analysis.SaturationThroughput
	ThroughputComparison  = analysis.ThroughputComparison
	WriteThroughputTable  = analysis.WriteThroughputTable
	DefaultPhysicalConst  = analysis.DefaultPhysicalConst
	WritePhysicalTable    = analysis.WritePhysicalTable
	WriteFaultTable       = analysis.WriteFaultTable
	WriteDegradationTable = analysis.WriteDegradationTable
	WriteRelatedTable     = analysis.WriteRelatedTable
	WriteSwitchingTable   = analysis.WriteSwitchingTable
	WritePathTable        = analysis.WritePathTable
	WriteCableTable       = analysis.WriteCableTable
	WriteLatencyTable     = analysis.WriteLatencyTable
	WriteBottleneckTable  = analysis.WriteBottleneckTable
	PatternFor            = analysis.PatternFor
	CollectiveSweep       = analysis.CollectiveSweep
	WriteCollectiveTable  = analysis.WriteCollectiveTable
	// MeanAndCI aggregates repetitions: sample mean with a 95%
	// confidence half-width.
	MeanAndCI = stats.MeanAndCI
)

// Static verification: the certification engine behind cmd/dsnverify.
// CertifyAll builds the full channel dependency graph of every
// registered topology x routing x VC-assignment combination, certifies
// deadlock freedom via Dally-Seitz acyclicity, and evaluates the
// paper-theorem bounds and routing-table totality as executable checks;
// the CertifyDegraded* functions re-certify fault-degraded fabrics
// along a FaultPlan timeline.
type (
	Certificate     = verify.Certificate
	CertCheckResult = verify.CheckResult
	CertOptions     = verify.Options
	CertStatus      = verify.Status
	TimelineEntry   = verify.TimelineEntry
)

// Certification statuses.
const (
	StatusCertified = verify.StatusCertified
	StatusCyclic    = verify.StatusCyclic
	StatusError     = verify.StatusError
)

// Verification entry points.
var (
	CertifyAll            = verify.CertifyAll
	DefaultCertOptions    = verify.DefaultOptions
	StandardCombos        = verify.StandardCombos
	CertifyDegradedUpDown = verify.CertifyDegradedUpDown
	CertifyDegradedDSN    = verify.CertifyDegradedDSN
	CertifyFaultTimeline  = verify.CertifyFaultTimeline
	SameCertificate       = verify.SameCertificate
	// Recovery escape-network certification: the Dally-Seitz half of
	// the runtime deadlock-recovery safety argument, per degraded epoch.
	CertifyRecoveryEscape   = verify.CertifyRecoveryEscape
	CertifyRecoveryTimeline = verify.CertifyRecoveryTimeline
)

// Runtime invariant monitors (armed per run with (*Sim).SetMonitors):
// packet conservation at every fault epoch, per-packet hop TTL from the
// Theorem 1(c) routing diameter bound, and head-of-line starvation. The
// progress watchdog is always on and configurable via
// SimConfig.WatchdogCycles.
type (
	SimMonitors      = netsim.Monitors
	MonitorViolation = netsim.MonitorViolation
	NoProgressError  = netsim.NoProgressError
	// HopBounder is implemented by routers with a provable per-packet
	// hop bound (DSNSourceRouted returns 3p+r; UpDownOnly its routing
	// diameter).
	HopBounder = netsim.HopBounder
)

// Monitor names, as reported by ViolatedMonitor and chaos verdicts.
const (
	MonitorWatchdog      = netsim.MonitorWatchdog
	MonitorConservation  = netsim.MonitorConservation
	MonitorHopTTL        = netsim.MonitorHopTTL
	MonitorHOLWait       = netsim.MonitorHOLWait
	MonitorReconvergence = netsim.MonitorReconvergence
)

var (
	// ErrNoProgress is the sentinel under every watchdog trip.
	ErrNoProgress = netsim.ErrNoProgress
	// ViolatedMonitor extracts the violated monitor's name from a Run
	// error.
	ViolatedMonitor = netsim.ViolatedMonitor
)

// Runtime deadlock detection and recovery (armed per run with
// (*Sim).SetRecovery): per-packet stall detection with a confirmation
// pass, Disha-style abort of confirmed victims onto the up*/down* escape
// network, and optional drain-before-reconfigure at fault epochs.
// Disarmed or idle recovery leaves runs bit-identical to an unarmed
// simulator.
type (
	RecoveryConfig  = recovery.Config
	RecoveryTracker = recovery.Tracker
	DeadlockEvent   = recovery.DeadlockEvent
	RecoveryEscape  = recovery.Escape
)

var (
	RecoveryDefault   = recovery.Default
	NewRecoveryEscape = recovery.NewEscape
)

// MonitorRecovery is reported by recovery-armed chaos runs that end
// with confirmed deadlocks neither recovered, released, nor accounted
// as lost.
const MonitorRecovery = netsim.MonitorRecovery

// Chaos engine (cmd/dsnchaos): seeded fault-injection campaigns run
// against both simulator engines with the monitors armed, plus
// delta-debugging of failing campaigns into minimal checked-in
// reproducers.
type (
	ChaosTargetSpec = chaos.Target
	ChaosOptions    = chaos.Options
	ChaosScenario   = chaos.Scenario
	ChaosVerdict    = chaos.Verdict
	ChaosEngine     = chaos.Engine
	ChaosRepro      = chaos.Repro
	ChaosWindow     = chaos.Window
	ChaosSetup      = chaos.Setup
	ChaosArm        = chaos.Arm
	ChaosGrid       = chaos.Grid
	ChaosRow        = analysis.ChaosRow
	RecoveryRow     = analysis.RecoveryRow
)

var (
	ChaosTarget         = chaos.BuildTarget
	ChaosTargetNames    = chaos.TargetNames
	ChaosDefaultOptions = chaos.DefaultOptions
	NewChaosEngine      = chaos.New
	NewChaosGrid        = chaos.NewGrid
	ChaosCampaign       = chaos.Campaign
	ChaosGenerate       = chaos.Generate
	ChaosShrink         = chaos.Shrink
	ParseChaosRepro     = chaos.ParseRepro
	ChaosRecoveryConfig = chaos.RecoveredReplayConfig
	// ChaosArmMultipath swaps a chaos target's router for the
	// k-shortest-path spraying router over the same graph.
	ChaosArmMultipath = chaos.ArmMultipath
	ChaosSweep        = analysis.ChaosSweep
	WriteChaosTable   = analysis.WriteChaosTable
	// Recovery-cost sweep: unarmed vs live-swap vs drain-before-
	// reconfigure recovery across link-failure fractions.
	RecoverySweep      = analysis.RecoverySweep
	WriteRecoveryTable = analysis.WriteRecoveryTable
	RecoveryModes      = analysis.RecoveryModes
)

// Sweep-orchestration harness (cmd/dsnbench and the -j/-cache flags of
// dsnfigs, dsnsim and dsnchaos): sweeps decompose into independent
// seeded cells executed on a bounded worker pool with deterministic
// assembly — parallel output is bit-identical to serial — and a
// content-addressed on-disk cache replays completed cells across runs.
type (
	// SweepRunner executes sweep cells (worker bound, cache, bench).
	SweepRunner = harness.Runner
	// SweepCellKey is the canonical identity of one sweep cell.
	SweepCellKey = harness.CellKey
	// SweepCache is the content-addressed on-disk result cache.
	SweepCache = harness.Cache
	// SweepBench accumulates per-sweep execution statistics.
	SweepBench = harness.Bench
	// SweepStats summarizes one sweep's execution.
	SweepStats = harness.Stats
	// BenchReport is the machine-readable BENCH_sweeps.json document.
	BenchReport = harness.Report
	// BenchSweepStat is one sweep's serialized statistics.
	BenchSweepStat = harness.SweepStat
	// BenchReplayCheck records a cached-replay bit-identity verification.
	BenchReplayCheck = harness.ReplayCheck
	// BenchScalingRow is one point of the serial-vs-parallel scaling curve.
	BenchScalingRow = harness.ScalingRow
)

const (
	// SweepEngineVersion stamps every cell key; bumping it invalidates
	// the whole cache when simulator semantics change.
	SweepEngineVersion = harness.EngineVersion
	// DefaultSweepCacheDir is where the CLIs keep cached cells.
	DefaultSweepCacheDir = harness.DefaultCacheDir
	// BenchSchema versions the BENCH_sweeps.json document.
	BenchSchema = harness.BenchSchema
)

var (
	NewSweepRunner     = harness.NewRunner
	DefaultSweepRunner = harness.Default
	SerialSweepRunner  = harness.Serial
	OpenSweepCache     = harness.OpenCache
	NewBenchReport     = harness.NewReport

	// BuildTopology constructs one named comparison topology — the
	// request-driven entry point dsnserve uses.
	BuildTopology = analysis.BuildTopology
)

// Topology design-space search (cmd/dsnsearch): a seeded quality/cost
// Pareto optimizer over ring-plus-shortcut genomes. Candidates are
// evaluated as content-addressed sweep cells (resumable, bit-identical
// at any -j), Dally–Seitz certified before simulation, and archived on
// a deterministic Pareto front over the paper's quality/cost axes.
type (
	// Genome is one candidate topology: a canonical extra-edge set over
	// a base ring.
	Genome = search.Genome
	// Gene is one canonical extra edge of a genome.
	Gene = search.Gene
	// SearchConstraints bound the design space (switch count, port budget).
	SearchConstraints = search.Constraints
	// SearchEvalConfig fixes how candidates are measured.
	SearchEvalConfig = search.EvalConfig
	// SearchEval is one candidate's cached evaluation.
	SearchEval = search.Eval
	// SearchCandidate pairs a genome with its origin and evaluation.
	SearchCandidate = search.Candidate
	// SearchConfig parameterizes one search run.
	SearchConfig = search.Config
	// SearchResult is the deterministic outcome document of one search.
	SearchResult = search.Result
	// SearchRunStats reports cache/execution statistics of one search.
	SearchRunStats = search.RunStats
	// SearchArchive is the deterministic Pareto archive.
	SearchArchive = search.Archive
	// ParetoPoint is one candidate on the rendered quality/cost plane.
	ParetoPoint = analysis.ParetoPoint
)

// SearchResultSchema versions the dsnsearch Result document.
const SearchResultSchema = search.ResultSchema

var (
	NewGenome           = search.NewGenome
	GenomeFromGraph     = search.FromGraph
	DefaultSearchConfig = search.DefaultConfig
	DefaultSearchEval   = search.DefaultEvalConfig
	SearchRun           = search.Run
	SearchEvaluate      = search.Evaluate
	SearchSeedPool      = search.SeedPool
	SearchDominates     = search.Dominates
	SearchPoints        = search.Points
	WriteParetoTable    = analysis.WriteParetoTable

	// SearchObjectives and SearchDrivers list the accepted -objective
	// and -driver values of cmd/dsnsearch.
	SearchObjectives = search.Objectives
	SearchDrivers    = search.Drivers
)

// Multipath source routing (internal/multipath): a deterministic
// k-shortest-path engine with canonical (length, lexicographic) path
// ordering, per-pair edge-disjoint path tables, a source-routed spraying
// router with three seeded selectors (static per-flow hash, packet
// round-robin, load-aware adaptive) riding an up*/down* VC0 escape, and
// the path-diversity metrics (realized edge-disjoint paths vs the Menger
// min-cut ceiling) behind dsnalyze -diversity and dsnsearch -objective
// diversity.
type (
	// MultipathPath is one loopless switch-level route.
	MultipathPath = multipath.Path
	// MultipathPathSet is the canonical route set of one ordered pair.
	MultipathPathSet = multipath.PathSet
	// MultipathTable holds the per-pair path sets of one graph.
	MultipathTable = multipath.Table
	// MultipathConfig parameterizes the spraying router.
	MultipathConfig = multipath.Config
	// MultipathRouter is the source-routed spraying router (a Router).
	MultipathRouter = multipath.Router
	// MultipathSelector picks among a pair's sprayed paths.
	MultipathSelector = multipath.Selector
	// PathDiversity summarizes a topology's multipath headroom.
	PathDiversity = multipath.Diversity
	// MultipathRow is one (topology, scheme, workload) sweep point.
	MultipathRow = analysis.MultipathRow
	// DiversityRow is one topology's diversity profile at one k.
	DiversityRow = analysis.DiversityRow
)

// Multipath selectors and the per-pair path budget.
const (
	SelectorStatic   = multipath.SelectorStatic
	SelectorRR       = multipath.SelectorRR
	SelectorAdaptive = multipath.SelectorAdaptive
	MultipathMaxK    = multipath.MaxK
)

var (
	NewMultipath          = multipath.New
	NewMultipathWithTable = multipath.NewWithTable
	BuildMultipathTable   = multipath.BuildTable
	KShortestPaths        = multipath.KShortest
	DisjointShortestPaths = multipath.DisjointShortest
	EdgeDisjointPaths     = multipath.EdgeDisjoint
	VertexDisjointPaths   = multipath.VertexDisjoint
	MinCut                = multipath.MinCut
	PathDiversityFor      = multipath.DiversityFor
	MeanMinCut            = multipath.MeanMinCut
	ParseSelector         = multipath.ParseSelector
	// SelectorNames lists the -selector values the CLIs accept.
	SelectorNames = multipath.SelectorNames
	// DecodePathSet parses the canonical path-set encoding.
	DecodePathSet = multipath.DecodePathSet

	// Multipath experiment drivers and the verify-layer certification.
	MultipathSweep           = analysis.MultipathSweep
	DiversitySweep           = analysis.DiversitySweep
	WriteMultipathTable      = analysis.WriteMultipathTable
	WriteDiversityTable      = analysis.WriteDiversityTable
	CertifyDegradedMultipath = verify.CertifyDegradedMultipath
	CheckMultipathTotality   = verify.CheckMultipathTotality
)

// MultipathSchemes and MultipathWorkloads list the grid MultipathSweep runs.
var (
	MultipathSchemes   = analysis.MultipathSchemes
	MultipathWorkloads = analysis.MultipathWorkloads
)

// PatternNames lists the traffic patterns PatternFor accepts.
var PatternNames = analysis.PatternNames

// ComparisonNames lists the paper's comparison topologies in presentation
// order: Torus, RANDOM, DSN.
var ComparisonNames = analysis.Names
