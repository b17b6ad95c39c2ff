package main

import (
	"encoding/json"
	"sort"
	"syscall"
)

// Bounds and units of the reported metrics. BENCHMARK.json is generated
// from these tables (perfbench --spec), and a test keeps the two equal.

// e2eDef is an end-to-end metric: what a user running the workload sees.
// Bound is the share of the parent's median by which it may worsen before
// a change counts as a regression.
type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerDef is a per-layer metric of the traced run.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []e2eDef{
	{"cpu_s", "s", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
	{"switch_cycles_per_s", "1/s", "higher", 0.2},
	{"peak_rss_mb", "MB", "lower", 0.1},
	// The share of attempted cells that passed every check: 1 - fail_frac,
	// reported this way up because a metric must never read 0.
	{"ok_frac", "ratio", "higher", 0.01},
}

var perLayer = []layerDef{
	{"netsim.vct.run_s", "s", "lower"},
	{"netsim.vct.ns_per_switch_cycle", "ns", "lower"},
	{"netsim.worm.run_s", "s", "lower"},
	{"netsim.worm.ns_per_switch_cycle", "ns", "lower"},
	{"netsim.ns_per_pkt", "ns", "lower"},
	{"netsim.allocs_per_kcycle", "count", "lower"},
	{"netsim.alloc_mb", "MB", "lower"},
	{"netsim.new_ms", "ms", "lower"},
	{"recovery.detected", "count", "lower"},
	{"recovery.aborted_flits", "count", "lower"},
	{"recovery.drain_paused_cycles", "cycles", "lower"},
	{"netsim.retried", "count", "lower"},
	{"netsim.lost", "count", "lower"},
	{"multipath.build_ms", "ms", "lower"},
	{"multipath.paths", "count", "higher"},
	{"netsim.out_of_order", "count", "lower"},
	{"verify.certify_ms", "ms", "lower"},
	{"verify.epochs", "count", "lower"},
	{"verify.cdg_deps", "count", "lower"},
	{"verify.acyclic_frac", "ratio", "higher"},
	{"chaos.scenario_ms", "ms", "lower"},
	{"chaos.fault_events", "count", "lower"},
	{"collectives.dag_ms", "ms", "lower"},
	{"collectives.messages", "count", "lower"},
	{"routing.build_ms", "ms", "lower"},
	{"topology.build_ms", "ms", "lower"},
	{"harness.self_ms", "ms", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"netsim.cycles", "count", "lower"},
	{"netsim.pkts_delivered", "count", "higher"},
	{"netsim.delivered_frac", "ratio", "higher"},
	{"netsim.escape_frac", "ratio", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.uncovered_ms", "ms", "lower"},
	{"trace.cpu_ms", "ms", "lower"},
}

// spec is BENCHMARK.json: how to run the benchmark and judge its metrics.
type spec struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []specWork `json:"workloads"`
	EndToEnd   []e2eDef   `json:"end_to_end"`
	PerLayer   []layerDef `json:"per_layer"`
}

type specWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one benchmark run measures.
const runSeconds = 35

func benchmarkSpec() ([]byte, error) {
	s := spec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWork{Name: w.name, Why: w.why})
	}
	data, err := json.MarshalIndent(s, "", "  ")
	return append(data, '\n'), err
}

// passMetrics are the end-to-end figures of one untraced pass. Host
// times are process CPU time (see cpuNow) scaled to the reference speed
// (see calibrate.go); the unscaled CPU time, the slowdown and the
// wall-clock time are kept for the report only.
type passMetrics struct {
	CPUS             float64 `json:"cpu_s"`
	SetupS           float64 `json:"setup_s"`
	SwitchCyclesPerS float64 `json:"switch_cycles_per_s"`
	RawCPUS          float64 `json:"raw_cpu_s"`
	Slowdown         float64 `json:"slowdown"`
	WallClockS       float64 `json:"wall_clock_s"`
}

// refSeconds converts a CPU time measured in a pass that ran slow times
// slower than the reference speed into reference seconds.
func refSeconds(ns int64, slow float64) float64 { return float64(ns) / 1e9 / slow }

func passE2E(p passResult) passMetrics {
	var setup, run int64
	for _, s := range p.spans {
		switch {
		case setupSpans[s.Name]:
			setup += s.dur()
		case s.Name == spanRunVCT || s.Name == spanRunWormhole:
			run += s.dur()
		}
	}
	var switchCycles float64
	for _, o := range p.outs {
		switchCycles += float64(o.Cycles) * float64(o.Switches)
	}
	slow := slowdown(p.spans)
	m := passMetrics{
		CPUS:       refSeconds(passCPU(p.spans), slow),
		SetupS:     refSeconds(setup, slow),
		RawCPUS:    float64(passCPU(p.spans)) / 1e9,
		Slowdown:   slow,
		WallClockS: p.wall.Seconds(),
	}
	if run > 0 {
		m.SwitchCyclesPerS = switchCycles / refSeconds(run, slow)
	}
	return m
}

// e2eMetrics reports the median of each pass figure, the process's peak
// resident memory and the share of cells that passed.
func e2eMetrics(plain []passResult, attempted, failed int) map[string]float64 {
	var cpu, setup, scps []float64
	for _, p := range plain {
		m := passE2E(p)
		cpu, setup, scps = append(cpu, m.CPUS), append(setup, m.SetupS), append(scps, m.SwitchCyclesPerS)
	}
	return map[string]float64{
		"cpu_s":               median(cpu),
		"setup_s":             median(setup),
		"switch_cycles_per_s": median(scps),
		"peak_rss_mb":         peakRSSMB(),
		"ok_frac":             float64(attempted-failed) / float64(attempted),
	}
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// refCPU is a pass's CPU time in reference seconds.
func refCPU(p passResult) float64 { return refSeconds(passCPU(p.spans), slowdown(p.spans)) }

// medianPass returns the pass with the median reference CPU time (the
// lower middle one for an even count).
func medianPass(ps []passResult) passResult {
	idx := make([]int, len(ps))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return refCPU(ps[idx[a]]) < refCPU(ps[idx[b]]) })
	return ps[idx[(len(idx)-1)/2]]
}

// layerMetrics reports the per-layer figures of the traced pass with the
// median CPU time, host times in reference units like the end-to-end
// metrics. All of them come from that one pass, so its layer self times
// plus trace.uncovered_ms add up to trace.cpu_ms.
func layerMetrics(plain, traced []passResult) map[string]float64 {
	p := medianPass(traced)
	self, uncovered := layerSelf(p.spans)
	slow := slowdown(p.spans)
	ms := func(ns int64) float64 { return 1e3 * refSeconds(ns, slow) }

	var cycles, vctSC, wormSC, gen, del int64
	var escSum float64
	var vctCells int
	m := map[string]float64{}
	for _, o := range p.outs {
		cycles += o.Cycles
		sc := o.Cycles * int64(o.Switches)
		if o.Engine == "wormhole" {
			wormSC += sc
		} else {
			vctSC += sc
			escSum += o.Escape
			vctCells++
		}
		gen += o.Generated
		del += o.Delivered
		m["recovery.detected"] += float64(o.Detected)
		m["recovery.aborted_flits"] += float64(o.AbortedFlits)
		m["recovery.drain_paused_cycles"] += float64(o.DrainPaused)
		m["netsim.retried"] += float64(o.Retried)
		m["netsim.lost"] += float64(o.Lost)
		m["multipath.paths"] += float64(o.Paths)
		m["netsim.out_of_order"] += float64(o.OutOfOrder)
		m["verify.epochs"] += float64(o.Epochs)
		m["verify.cdg_deps"] += float64(o.CDGDeps)
		m["verify.acyclic_frac"] += float64(o.AcyclicEpochs) // divided below
		m["chaos.fault_events"] += float64(o.FaultEvents)
		m["collectives.messages"] += float64(o.Messages)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["verify.acyclic_frac"] = ratio(m["verify.acyclic_frac"], m["verify.epochs"])

	vctRun, wormRun := refSeconds(self[spanRunVCT], slow), refSeconds(self[spanRunWormhole], slow)
	m["netsim.vct.run_s"] = vctRun
	m["netsim.vct.ns_per_switch_cycle"] = ratio(1e9*vctRun, float64(vctSC))
	m["netsim.worm.run_s"] = wormRun
	m["netsim.worm.ns_per_switch_cycle"] = ratio(1e9*wormRun, float64(wormSC))
	m["netsim.ns_per_pkt"] = ratio(1e9*(vctRun+wormRun), float64(del))
	m["netsim.new_ms"] = ms(self[spanSimNew])
	m["multipath.build_ms"] = ms(self[spanMultipath])
	m["verify.certify_ms"] = ms(self[spanCertify])
	m["chaos.scenario_ms"] = ms(self[spanScenario])
	m["collectives.dag_ms"] = ms(self[spanDAG])
	m["routing.build_ms"] = ms(self[spanRouting])
	m["topology.build_ms"] = ms(self[spanTopology])
	m["harness.self_ms"] = ms(self[spanHarness])

	var runMallocs, simAlloc uint64
	var gcs uint32
	var pauseNS uint64
	for _, s := range p.spans {
		switch s.Name {
		case spanRunVCT, spanRunWormhole:
			runMallocs += s.Mallocs
			simAlloc += s.AllocBytes
		case spanSimNew:
			simAlloc += s.AllocBytes
		case spanPass:
			gcs += s.GCs
			pauseNS += s.GCPauseNS
		}
	}
	m["netsim.allocs_per_kcycle"] = ratio(float64(runMallocs), float64(cycles)/1000)
	m["netsim.alloc_mb"] = float64(simAlloc) / 1e6
	m["runtime.gc_cycles"] = float64(gcs)
	m["runtime.gc_pause_ms"] = float64(pauseNS) / 1e6 // wall-clock stop-the-world time, not scaled

	m["netsim.cycles"] = float64(cycles)
	m["netsim.pkts_delivered"] = float64(del)
	m["netsim.delivered_frac"] = ratio(float64(del), float64(gen))
	m["netsim.escape_frac"] = ratio(escSum, float64(vctCells))

	var plainCPU, tracedCPU []float64
	for _, q := range plain {
		plainCPU = append(plainCPU, refCPU(q))
	}
	for _, q := range traced {
		tracedCPU = append(tracedCPU, refCPU(q))
	}
	m["trace.overhead_frac"] = median(tracedCPU)/median(plainCPU) - 1
	m["trace.uncovered_ms"] = ms(uncovered)
	m["trace.cpu_ms"] = ms(passCPU(p.spans))
	return m
}
