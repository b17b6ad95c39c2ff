package analysis

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"dsnet/internal/core"
	"dsnet/internal/harness"
	"dsnet/internal/netsim"
)

// harnessCfg keeps the determinism regressions fast: short windows are
// fine because both runners see the same windows.
func harnessCfg() netsim.Config {
	cfg := netsim.Default()
	cfg.WarmupCycles = 1000
	cfg.MeasureCycles = 2000
	cfg.DrainCycles = 4000
	return cfg
}

// sweepFns runs each ported sweep once on the given runner and returns
// the results keyed by sweep name, so every regression below compares
// the same grid.
func runAllSweeps(t *testing.T, r *harness.Runner) map[string]any {
	t.Helper()
	cfg := harnessCfg()
	d, err := core.New(64, core.CeilLog2(64)-1)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := LatencySweep(context.Background(), r, cfg, d.Graph(), "DSN", "uniform", []float64{0.02, 0.06})
	if err != nil {
		t.Fatalf("latency: %v", err)
	}
	faults, err := FaultSweep(context.Background(), r, 32, []float64{0.05}, 4, 1)
	if err != nil {
		t.Fatalf("faults: %v", err)
	}
	coll, err := CollectiveSweep(context.Background(), r, cfg, []int{16}, "allgather", "ring", 16, 2, 1)
	if err != nil {
		t.Fatalf("collective: %v", err)
	}
	chaos, err := ChaosSweep(context.Background(), r, []string{"torus"}, 36, 1, 2, false)
	if err != nil {
		t.Fatalf("chaos: %v", err)
	}
	mp, err := MultipathSweep(context.Background(), r, cfg, 16, 0.05, 0.05, 1)
	if err != nil {
		t.Fatalf("multipath: %v", err)
	}
	div, err := DiversitySweep(context.Background(), r, 16, []int{2, 4}, 1)
	if err != nil {
		t.Fatalf("diversity: %v", err)
	}
	return map[string]any{"latency": lat, "faults": faults, "collective": coll, "chaos": chaos,
		"multipath": mp, "diversity": div}
}

// TestParallelSweepsMatchSerial pins the tentpole guarantee: at -j 8
// every ported sweep's output is identical to the serial reference,
// float for float.
func TestParallelSweepsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full (if small) simulations")
	}
	want := runAllSweeps(t, harness.Serial())
	got := runAllSweeps(t, &harness.Runner{Jobs: 8})
	for name, w := range want {
		if !reflect.DeepEqual(got[name], w) {
			t.Errorf("%s: parallel (-j 8) results differ from serial", name)
		}
	}
}

// TestCachedSweepsReplayIdentically pins the cache guarantee: a second
// run over a warm cache executes zero cells and reproduces the fresh
// results exactly.
func TestCachedSweepsReplayIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full (if small) simulations")
	}
	cache, err := harness.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	fresh := runAllSweeps(t, &harness.Runner{Jobs: 8, Cache: cache, Bench: &harness.Bench{}})

	replayBench := &harness.Bench{}
	replay := runAllSweeps(t, &harness.Runner{Jobs: 8, Cache: cache, Bench: replayBench})

	executed := 0
	for _, s := range replayBench.Sweeps() {
		executed += s.Executed
	}
	if executed != 0 {
		t.Errorf("warm-cache replay executed %d cells, want 0", executed)
	}
	for name, w := range fresh {
		if !reflect.DeepEqual(replay[name], w) {
			t.Errorf("%s: cached replay differs from the fresh run", name)
		}
	}
}
