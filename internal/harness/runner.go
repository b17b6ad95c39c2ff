package harness

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Runner executes sweep cells. The zero value runs cells on GOMAXPROCS
// workers with no cache and no bench recording; it is what Default
// returns, and what a nil *Runner runs as.
type Runner struct {
	// Jobs bounds the worker pool. <= 0 selects GOMAXPROCS.
	Jobs int
	// Cache, when non-nil, memoizes completed cells and replays them on
	// later runs with equal keys.
	Cache *Cache
	// Bench, when non-nil, receives one SweepStat per Run call.
	Bench *Bench
	// Progress, when non-nil, receives a completion tick after the cache
	// scan (done = cells served from the cache) and after every executed
	// cell. Ticks arrive concurrently from worker goroutines; done is
	// monotone per Run call but ticks may be observed out of order.
	Progress func(sweep string, done, total int)
}

// Default returns the zero Runner: GOMAXPROCS workers, no cache, no
// bench. Parallel assembly is deterministic, so this is safe as the
// library-wide default.
func Default() *Runner { return &Runner{} }

// Serial returns a single-worker Runner — the reference execution that
// parallel runs are pinned bit-identical to.
func Serial() *Runner { return &Runner{Jobs: 1} }

// NewRunner builds the Runner behind the CLI -j/-cache/-nocache flags:
// jobs workers (<= 0 selects GOMAXPROCS), a content-addressed cache at
// cacheDir unless nocache, and a Bench collecting per-sweep statistics.
func NewRunner(jobs int, cacheDir string, nocache bool) (*Runner, error) {
	r := &Runner{Jobs: jobs, Bench: &Bench{}}
	if !nocache {
		c, err := OpenCache(cacheDir)
		if err != nil {
			return nil, err
		}
		r.Cache = c
	}
	return r, nil
}

func (r *Runner) jobs() int {
	if r == nil || r.Jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Jobs
}

// JobCount resolves the effective worker bound this runner uses.
func (r *Runner) JobCount() int { return r.jobs() }

// Cell is one independent unit of a sweep: a pure, seeded computation
// identified by Key. Run must not share mutable state with other
// cells — each cell builds its own routers, patterns and simulators —
// and must be deterministic given the key, because the cache replays
// stored results for equal keys.
type Cell[T any] struct {
	Key CellKey
	Run func() (T, error)
}

// Stats summarizes one Run call.
type Stats struct {
	Sweep       string
	Cells       int // total cells presented
	Executed    int // cells actually run
	Cached      int // cells served from the cache
	CacheErrors int // cache writes that failed (result kept, not memoized)
	Jobs        int // worker bound used
	Wall        time.Duration
}

// PanicError wraps a panic recovered from a cell so one defective cell
// fails its sweep instead of crashing the process — the isolation a
// long-running daemon serving many sweeps depends on.
type PanicError struct {
	Key   CellKey
	Value any    // the recovered panic value
	Stack []byte // goroutine stack at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("harness: cell %s panicked: %v", e.Key.Hash()[:12], e.Value)
}

// runCell executes one cell with panic isolation.
func runCell[T any](c Cell[T]) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Key: c.Key, Value: p, Stack: debug.Stack()}
		}
	}()
	return c.Run()
}

// Run executes the cells of one sweep and returns their results in
// cell order. Execution order is unspecified (bounded by r.Jobs), but
// assembly is deterministic: results land at their cell's index, and
// when cells fail, the error of the lowest-indexed failing cell is
// returned — exactly what a serial loop would have surfaced first.
//
// With a cache attached, cells whose key is already stored are not
// executed; fresh results are stored as soon as each cell completes,
// so an interrupted sweep resumes where it stopped.
func Run[T any](r *Runner, sweep string, cells []Cell[T]) ([]T, error) {
	out, _, err := RunStats(r, sweep, cells)
	return out, err
}

// RunStats is Run plus the sweep's execution statistics.
func RunStats[T any](r *Runner, sweep string, cells []Cell[T]) ([]T, Stats, error) {
	return RunStatsCtx(context.Background(), r, sweep, cells)
}

// RunCtx is Run under a context: cancellation or deadline expiry stops
// dispatching pending cells (workers observe it between cells) and the
// call returns ctx.Err(), so partial results are never presented as a
// complete sweep.
func RunCtx[T any](ctx context.Context, r *Runner, sweep string, cells []Cell[T]) ([]T, error) {
	out, _, err := RunStatsCtx(ctx, r, sweep, cells)
	return out, err
}

// RunStatsCtx is the full-control entry point every other Run variant
// delegates to: context-aware execution with per-sweep statistics.
//
// Beyond the Run contract it adds three robustness behaviors:
//
//   - cancellation: when ctx is done, no further cells start; if any
//     pending cell was thereby skipped the call returns ctx.Err().
//   - fail-fast: the first failing cell cancels the pending queue, so a
//     big sweep stops burning CPU once its outcome is already an error.
//     In-flight cells finish, and the reported error is still the
//     lowest-indexed failing cell (dispatch is in index order, so every
//     cell below a failure was already dispatched) — serial
//     error-reporting semantics are unchanged.
//   - panic isolation: a panicking cell fails its sweep with a
//     *PanicError instead of crashing the process.
func RunStatsCtx[T any](ctx context.Context, r *Runner, sweep string, cells []Cell[T]) ([]T, Stats, error) {
	if r == nil {
		r = Default()
	}
	start := time.Now() // dsnlint:ok walltime bench timing metadata; never feeds cell results
	results := make([]T, len(cells))
	errs := make([]error, len(cells))

	var pending []int
	cachedCount := 0
	for i := range cells {
		if r.Cache != nil && r.Cache.Get(cells[i].Key, &results[i]) {
			cachedCount++
			continue
		}
		pending = append(pending, i)
	}
	var done atomic.Int64
	done.Store(int64(cachedCount))
	if r.Progress != nil {
		r.Progress(sweep, cachedCount, len(cells))
	}

	jobs := r.jobs()
	if jobs > len(pending) {
		jobs = len(pending)
	}
	var executed, cacheErrs atomic.Int64
	if len(pending) > 0 && ctx.Err() == nil {
		// stop is closed by the first failing cell; it cuts off dispatch
		// while letting in-flight cells complete.
		stop := make(chan struct{})
		var stopOnce sync.Once
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < jobs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					v, err := runCell(cells[i])
					results[i], errs[i] = v, err
					executed.Add(1)
					if err != nil {
						stopOnce.Do(func() { close(stop) })
					} else if r.Cache != nil {
						// Best effort: an unmarshallable or unwritable result
						// simply isn't memoized; the sweep itself is unaffected,
						// but the failure is counted so a read-only or full disk
						// shows up in Stats instead of as a mystery slowdown.
						if perr := r.Cache.Put(cells[i].Key, v); perr != nil {
							cacheErrs.Add(1)
						}
					}
					if r.Progress != nil {
						r.Progress(sweep, int(done.Add(1)), len(cells))
					}
				}
			}()
		}
	dispatch:
		for _, i := range pending {
			select {
			case idx <- i:
			case <-stop:
				break dispatch
			case <-ctx.Done():
				break dispatch
			}
		}
		close(idx)
		wg.Wait()
	}

	st := Stats{
		Sweep:       sweep,
		Cells:       len(cells),
		Executed:    int(executed.Load()),
		Cached:      cachedCount,
		CacheErrors: int(cacheErrs.Load()),
		Jobs:        jobs,
		Wall:        time.Since(start), // dsnlint:ok walltime bench timing metadata; never feeds cell results
	}
	if r.Bench != nil {
		r.Bench.add(st)
	}
	for i := range cells {
		if errs[i] != nil {
			return results, st, errs[i]
		}
	}
	if ctx.Err() != nil && st.Executed < len(pending) {
		return results, st, ctx.Err()
	}
	return results, st, nil
}
