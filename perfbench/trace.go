package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// clock is the benchmark's only wall-clock source. Its readings bound a
// run's length and are recorded in its report, never in a cell's cached
// value; spans are timed on CPU time (cpuNow).
type clock struct{ origin time.Time }

func newClock() clock {
	return clock{origin: time.Now()} // dsnlint:ok walltime host timing is this benchmark's output, kept out of cell values
}

// now returns the monotonic host time since the clock started.
func (c clock) now() time.Duration {
	return time.Since(c.origin) // dsnlint:ok walltime host timing is this benchmark's output, kept out of cell values
}

// cpuNow returns the CPU time the process has used, all threads, user
// and system. Spans are timed on it rather than on the wall clock: on a
// shared virtual machine the wall clock also counts time the host steals
// from the guest, which comes in bursts tens of seconds long and would
// swamp the differences the benchmark exists to show.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error()) // cannot fail with RUSAGE_SELF and a valid pointer
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// Span names. Every name except spanPass, spanCell and spanProbe marks a
// call into one layer of the system; those are the benchmark's own.
const (
	spanPass  = "pass"      // one run of a workload's cell list
	spanCell  = "cell"      // the benchmark's wrapper around one cell
	spanProbe = "calibrate" // the speed probe before each cell (calibrate.go)

	spanHarness     = "harness.Run"
	spanTopology    = "topology.build"
	spanRouting     = "routing.build"
	spanMultipath   = "multipath.build"
	spanScenario    = "chaos.scenario"
	spanCertify     = "verify.certify"
	spanDAG         = "collectives.dag"
	spanSimNew      = "netsim.new"
	spanRunVCT      = "netsim.vct.run"
	spanRunWormhole = "netsim.worm.run"
)

// setupSpans are the layer calls made before a cell's first simulated
// cycle; their summed duration is the setup_s metric.
var setupSpans = map[string]bool{
	spanTopology: true, spanRouting: true, spanMultipath: true, spanScenario: true,
	spanCertify: true, spanDAG: true, spanSimNew: true,
}

// memEdge is the slice of runtime.MemStats read at a span edge.
type memEdge struct {
	mallocs, allocBytes, pauseNS uint64
	gcs                          uint32
}

func readMem() memEdge {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memEdge{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, pauseNS: ms.PauseTotalNs, gcs: ms.NumGC}
}

// span is one timed call. Spans nest strictly: the harness runs one cell
// at a time, so a span's children lie inside it and do not overlap.
type span struct {
	Name   string `json:"name"`
	Cell   int    `json:"cell"`         // cell index the span belongs to, -1 outside cells
	Parent int    `json:"parent"`       // index of the enclosing span, -1 for a pass root
	Start  int64  `json:"start_cpu_ns"` // process CPU time at the edges
	End    int64  `json:"end_cpu_ns"`
	// Allocation and GC deltas over the span; read only when tracing.
	Mallocs    uint64 `json:"mallocs,omitempty"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	GCs        uint32 `json:"gcs,omitempty"`
	GCPauseNS  uint64 `json:"gc_pause_ns,omitempty"`

	mem memEdge // reading at the start edge
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records the spans of one pass in memory. With mem set it also
// reads allocation and GC counters at every span edge, which is what
// makes a traced pass cost more than a plain one.
type tracer struct {
	mem       bool
	spans     []span
	open      []int // stack of open span indices
	cell      int
	probeSink uint32
}

func newTracer(mem bool) *tracer { return &tracer{mem: mem, cell: -1} }

func (t *tracer) begin(name string) {
	s := span{Name: name, Cell: t.cell, Parent: -1}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	if t.mem {
		s.mem = readMem()
	}
	s.Start = cpuNow()
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, s)
}

func (t *tracer) end() {
	end := cpuNow()
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.End = end
	if t.mem {
		m := readMem()
		s.Mallocs = m.mallocs - s.mem.mallocs
		s.AllocBytes = m.allocBytes - s.mem.allocBytes
		s.GCs = m.gcs - s.mem.gcs
		s.GCPauseNS = m.pauseNS - s.mem.pauseNS
	}
	if s.Name == spanCell {
		t.cell = -1
	}
}

// beginCell opens the wrapper span of cell i; spans opened until its end
// carry the cell's index.
func (t *tracer) beginCell(i int) {
	t.cell = i
	t.begin(spanCell)
}

// timed runs f inside a span named name.
func timed[T any](t *tracer, name string, f func() (T, error)) (T, error) {
	t.begin(name)
	defer t.end()
	return f()
}

// selfTimes returns each span's duration minus the durations of its
// direct children.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// layerSelf sums self time per layer span name. The self time of the
// benchmark's pass and cell frames is the time no layer span covers,
// returned separately; the two add up to passCPU.
func layerSelf(spans []span) (byLayer map[string]int64, uncovered int64) {
	byLayer = map[string]int64{}
	for i, self := range selfTimes(spans) {
		switch name := spans[i].Name; name {
		case spanPass, spanCell:
			uncovered += self
		case spanProbe:
		default:
			byLayer[name] += self
		}
	}
	return byLayer, uncovered
}

// passCPU is the CPU time of the pass spans less the speed probes run
// inside them: the cost of running the cell list.
func passCPU(spans []span) int64 {
	return total(spans, spanPass) - total(spans, spanProbe)
}

// total sums the durations of the spans named name.
func total(spans []span, name string) int64 {
	var d int64
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// median returns the median of xs (the mean of the middle pair for an
// even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
