package main

import (
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"dsnet/internal/catalog"
)

// quick returns short-schedule options for tests.
func quick(topo, pattern, routing string, n int, rates, switching string, buf int) opts {
	return opts{
		topo: topo, pattern: pattern, routing: routing, n: n, seed: 1,
		rates: rates, warmup: 500, measure: 1000, drain: 1500,
		switching: switching, buf: buf,
		faultCycle: -1, faultSpread: -1,
	}
}

func TestRunVCT(t *testing.T) {
	if err := run(quick("dsn", "uniform", "adaptive", 64, "0.02", "vct", 0)); err != nil {
		t.Fatal(err)
	}
}

func TestRunNewPatterns(t *testing.T) {
	for _, pattern := range []string{"transpose", "shuffle", "hotspot", "stencil-2d", "all-to-all", "tornado"} {
		if err := run(quick("dsn", pattern, "adaptive", 64, "0.02", "vct", 0)); err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
	}
}

func TestRunCollective(t *testing.T) {
	o := quick("dsn", "uniform", "adaptive", 16, "0.02", "vct", 0)
	o.collective, o.collalgo, o.chunk, o.reps = "allgather", "ring", 8, 2
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	// Wormhole replay, default algorithm.
	o = quick("torus", "uniform", "adaptive", 16, "0.02", "wormhole", 20)
	o.collective, o.chunk, o.reps = "broadcast", 8, 1
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunCollectiveWithFaults(t *testing.T) {
	o := quick("dsn", "uniform", "adaptive", 16, "0.02", "vct", 0)
	o.collective, o.collalgo, o.chunk, o.reps = "allgather", "ring", 8, 1
	o.faults = 0.05
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunCollectiveRejections(t *testing.T) {
	o := quick("dsn", "uniform", "adaptive", 16, "0.02", "vct", 0)
	o.collective, o.reps = "bogus", 1
	if err := run(o); err == nil {
		t.Fatal("bad collective accepted")
	}
	o.collective, o.collalgo = "allreduce", "bogus"
	if err := run(o); err == nil {
		t.Fatal("bad algorithm accepted")
	}
	o.collective, o.collalgo = "allreduce", "halving-doubling"
	// 16 switches x 4 hosts = 64 hosts is a power of two; 60 switches is not.
	o.reps = 0
	if err := run(o); err == nil {
		t.Fatal("zero reps accepted")
	}
}

// A chunk whose broadcast vector overflows a message's int32 flit count
// (16 switches x 4 hosts x 67,108,865 flits) fails before anything runs,
// so dsnsim exits non-zero instead of replaying wrapped message sizes.
func TestRunCollectiveRejectsOversizedChunk(t *testing.T) {
	o := quick("dsn", "uniform", "adaptive", 16, "0.02", "vct", 0)
	o.collective, o.chunk, o.reps = "broadcast", 67108865, 1
	err := run(o)
	if err == nil || !strings.Contains(err.Error(), "64 hosts x 67108865 chunk flits") {
		t.Fatalf("oversized chunk: err %v, want one naming 64 hosts and 67108865 chunk flits", err)
	}
}

func TestRunWormhole(t *testing.T) {
	if err := run(quick("torus", "uniform", "adaptive", 64, "0.02", "wormhole", 20)); err != nil {
		t.Fatal(err)
	}
}

func TestRunCustomRouting(t *testing.T) {
	for _, topo := range []string{"dsn-v", "dsn-e"} {
		if err := run(quick(topo, "uniform", "custom", 60, "0.01", "vct", 0)); err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
	}
}

// TestRunDOR runs dimension-order routing, which needs a torus, on both
// engines.
func TestRunDOR(t *testing.T) {
	for _, switching := range []string{"vct", "wormhole"} {
		if err := run(quick("torus", "uniform", "dor", 16, "0.02", switching, 0)); err != nil {
			t.Fatalf("%s: %v", switching, err)
		}
	}
}

func TestRunWithFaults(t *testing.T) {
	o := quick("dsn", "uniform", "adaptive", 64, "0.06", "vct", 0)
	o.warmup, o.measure, o.drain = 1000, 3000, 4000
	o.faults = 0.05
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	// Wormhole accepts a plan too (masking-only semantics).
	o.switching, o.buf = "wormhole", 20
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

// captureRun runs dsnsim with o and returns what it printed.
func captureRun(t *testing.T, o opts) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run(o)
	os.Stdout = stdout
	w.Close()
	printed := <-out
	if runErr != nil {
		t.Fatal(runErr)
	}
	return printed
}

// TestRunFaultRowPostFaultP99 checks the pf_p99_ns column of a fault
// run's row: VCT measures it, and wormhole, whose fail-stop faults
// never measure it, prints "-" instead of a 0 that reads as measured.
func TestRunFaultRowPostFaultP99(t *testing.T) {
	for _, switching := range []string{"vct", "wormhole"} {
		o := quick("dsn-v", "uniform", "adaptive", 36, "0.02", switching, 0)
		o.warmup, o.measure, o.drain = 1000, 2000, 3000
		o.faults = 0.05
		out := captureRun(t, o)
		lines := strings.Split(strings.TrimSpace(out), "\n")
		header, row := strings.Fields(lines[len(lines)-2]), strings.Fields(lines[len(lines)-1])
		if len(header) != 11 || header[10] != "pf_p99_ns" || len(row) != 11 {
			t.Fatalf("%s: unexpected table:\n%s", switching, out)
		}
		if got := row[10]; (switching == "wormhole") != (got == "-") || got == "0.0" {
			t.Errorf("%s: pf_p99_ns %q in row %q", switching, got, lines[len(lines)-1])
		}
	}
}

func TestRunRejections(t *testing.T) {
	if err := run(quick("bogus", "uniform", "adaptive", 64, "0.02", "vct", 0)); err == nil {
		t.Fatal("bad topology accepted")
	}
	if err := run(quick("dsn", "bogus", "adaptive", 64, "0.02", "vct", 0)); err == nil {
		t.Fatal("bad pattern accepted")
	}
	if err := run(quick("dsn", "uniform", "bogus", 64, "0.02", "vct", 0)); err == nil {
		t.Fatal("bad routing accepted")
	}
	var unsupported *catalog.UnsupportedError
	if err := run(quick("dsn", "uniform", "custom", 64, "0.02", "vct", 0)); !errors.As(err, &unsupported) {
		t.Fatalf("custom routing on the basic DSN: got %v, want a catalog.UnsupportedError", err)
	}
	if err := run(quick("dsn", "uniform", "adaptive", 64, "zzz", "vct", 0)); err == nil {
		t.Fatal("bad rates accepted")
	}
	if err := run(quick("dsn", "uniform", "adaptive", 64, "0.02", "bogus", 0)); err == nil {
		t.Fatal("bad switching accepted")
	}
	o := quick("dsn", "uniform", "adaptive", 64, "0.02", "vct", 0)
	o.faults = -0.1
	if err := run(o); err == nil {
		t.Fatal("negative fault fraction accepted")
	}
	o.faults = 1e-9 // fails zero links
	if err := run(o); err == nil {
		t.Fatal("no-op fault fraction accepted silently")
	}
}
