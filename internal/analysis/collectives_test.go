package analysis

import (
	"context"
	"strings"
	"testing"

	"dsnet/internal/netsim"
)

func collectiveCfg() netsim.Config {
	cfg := netsim.Default()
	cfg.WarmupCycles = 1000
	cfg.MeasureCycles = 2000
	cfg.DrainCycles = 2000
	return cfg
}

func TestCollectiveSweepSmall(t *testing.T) {
	cfg := collectiveCfg()
	rows, err := CollectiveSweep(context.Background(), nil, cfg, []int{16}, "allgather", "ring", 16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Three adaptive rows plus the DSN-custom row.
	if len(rows) != len(Names)+1 {
		t.Fatalf("%d rows, want %d", len(rows), len(Names)+1)
	}
	for _, r := range rows {
		if r.CompletedRate != 1 {
			t.Errorf("%s/%s: completed rate %.2f, want 1", r.Name, r.Routing, r.CompletedRate)
		}
		if r.MakespanUS <= 0 {
			t.Errorf("%s/%s: makespan %.1f us not positive", r.Name, r.Routing, r.MakespanUS)
		}
		if r.Watchdog {
			t.Errorf("%s/%s: watchdog tripped", r.Name, r.Routing)
		}
		if len(r.PhaseUS) != 1 || r.PhaseUS[0] != r.MakespanUS {
			t.Errorf("%s/%s: single-phase end %v should equal makespan %v", r.Name, r.Routing, r.PhaseUS, r.MakespanUS)
		}
	}
}

func TestCollectiveSweepSkipsUndefinedWorkloads(t *testing.T) {
	cfg := collectiveCfg()
	// dsnVFor(20) = 20 switches = 80 hosts: not a power of two, so the
	// DSN-custom halving-doubling row must be skipped, not fail the sweep.
	rows, err := CollectiveSweep(context.Background(), nil, cfg, []int{16}, "allreduce", "halving-doubling", 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Routing == "dsn-custom" && r.Hosts&(r.Hosts-1) != 0 {
			t.Fatalf("halving-doubling row with non-power-of-two hosts %d", r.Hosts)
		}
	}
	if len(rows) < len(Names) {
		t.Fatalf("adaptive rows missing: %d", len(rows))
	}
}

func TestWriteCollectiveTable(t *testing.T) {
	cfg := collectiveCfg()
	rows, err := CollectiveSweep(context.Background(), nil, cfg, []int{16}, "broadcast", "", 8, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteCollectiveTable(&sb, rows)
	out := sb.String()
	for _, want := range []string{"makespan_us", "DSN", "Torus", "RANDOM", "broadcast", "binomial"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
