package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
)

// BenchSchema versions the machine-readable benchmark document
// (BENCH_sweeps.json).
const BenchSchema = "dsn-bench/v1"

// SweepStat is the serialized form of one sweep's Stats.
type SweepStat struct {
	Sweep       string  `json:"sweep"`
	Cells       int     `json:"cells"`
	Executed    int     `json:"executed"`
	Cached      int     `json:"cached"`
	CacheErrors int     `json:"cache_errors,omitempty"`
	Jobs        int     `json:"jobs"`
	WallMS      float64 `json:"wall_ms"`
	CellsPerSec float64 `json:"cells_per_sec"`
}

func statOf(s Stats) SweepStat {
	st := SweepStat{
		Sweep:       s.Sweep,
		Cells:       s.Cells,
		Executed:    s.Executed,
		Cached:      s.Cached,
		CacheErrors: s.CacheErrors,
		Jobs:        s.Jobs,
		WallMS:      float64(s.Wall.Microseconds()) / 1e3,
	}
	if sec := s.Wall.Seconds(); sec > 0 {
		st.CellsPerSec = float64(s.Cells) / sec
	}
	return st
}

// Bench accumulates per-sweep statistics across one tool invocation.
// It is safe for concurrent use (sweeps may themselves run from
// parallel call sites).
type Bench struct {
	mu     sync.Mutex
	sweeps []SweepStat
}

func (b *Bench) add(s Stats) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sweeps = append(b.sweeps, statOf(s))
}

// Sweeps returns a copy of the recorded per-sweep statistics.
func (b *Bench) Sweeps() []SweepStat {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]SweepStat(nil), b.sweeps...)
}

// TotalWallMS sums the recorded sweep wall times.
func (b *Bench) TotalWallMS() float64 {
	total := 0.0
	for _, s := range b.Sweeps() {
		total += s.WallMS
	}
	return total
}

// TotalCacheErrors sums the recorded cache write failures.
func (b *Bench) TotalCacheErrors() int {
	total := 0
	for _, s := range b.Sweeps() {
		total += s.CacheErrors
	}
	return total
}

// ScalingRow is one point of the serial-vs-parallel scaling curve
// (dsnbench -scaling): the same harness-backed sweep timed at Jobs=1
// and at the configured worker bound.
type ScalingRow struct {
	Switches   int     `json:"switches"`
	Cells      int     `json:"cells"`
	SerialMS   float64 `json:"serial_ms"`
	ParallelMS float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
}

// ReplayCheck records the cached-replay verification of a grid: a
// fully cached re-run must execute zero cells and reproduce the fresh
// results byte-for-byte.
type ReplayCheck struct {
	Executed  int  `json:"executed"`
	Cached    int  `json:"cached"`
	Identical bool `json:"identical"`
}

// Report is the top-level BENCH_sweeps.json document.
type Report struct {
	Schema     string      `json:"schema"`
	Engine     string      `json:"engine"`
	Grid       string      `json:"grid,omitempty"`
	Switching  string      `json:"switching,omitempty"`
	Jobs       int         `json:"jobs"`
	GoMaxProcs int         `json:"gomaxprocs"`
	Sweeps     []SweepStat `json:"sweeps"`
	// TotalWallMS is the parallel grid's wall time; SerialWallMS is
	// present when a serial baseline was measured in the same invocation
	// (dsnbench), and Speedup too when the parallel pass ran more than
	// one worker.
	TotalWallMS  float64      `json:"total_wall_ms"`
	SerialWallMS float64      `json:"serial_wall_ms,omitempty"`
	Speedup      float64      `json:"speedup,omitempty"`
	CacheErrors  int          `json:"cache_errors,omitempty"`
	Replay       *ReplayCheck `json:"replay,omitempty"`
	// Scaling, when present, is the -scaling serial-vs-parallel curve
	// recorded in the same invocation.
	Scaling []ScalingRow `json:"scaling,omitempty"`
}

// NewReport assembles a Report around the recorded sweeps.
func NewReport(b *Bench, jobs int) *Report {
	return &Report{
		Schema:      BenchSchema,
		Engine:      EngineVersion,
		Jobs:        jobs,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Sweeps:      b.Sweeps(),
		TotalWallMS: b.TotalWallMS(),
		CacheErrors: b.TotalCacheErrors(),
	}
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("harness: bench report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
