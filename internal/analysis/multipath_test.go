package analysis

import (
	"context"
	"strings"
	"testing"

	"dsnet/internal/harness"
)

// TestMultipathSweepShape pins the sweep's row grid: every topology runs
// every scheme (plus dsn-custom on the DSN series) under every workload,
// in the serial order the writers and EXPERIMENTS.md tables depend on.
func TestMultipathSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full (if small) simulations")
	}
	cfg := harnessCfg()
	rows, err := MultipathSweep(context.Background(), harness.Serial(), cfg, 16, 0.05, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := len(Names)*len(MultipathSchemes)*len(MultipathWorkloads) + len(MultipathWorkloads)
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	sawCustom := false
	for _, r := range rows {
		if r.Scheme == "dsn-custom" {
			sawCustom = true
			if r.Name != "DSN" {
				t.Errorf("dsn-custom ran on %s", r.Name)
			}
		}
		if r.Watchdog {
			t.Errorf("%s/%s/%s tripped the watchdog", r.Name, r.Scheme, r.Workload)
		}
		// Single-path baselines may congest under hotspot — that contrast
		// is the experiment's point — but the multipath schemes must stay
		// healthy at this load, and nothing may collapse outright.
		floor := 0.5
		if strings.HasPrefix(r.Scheme, "mp-") {
			floor = 0.9
		}
		if r.Workload != "collective" && r.DeliveredRate < floor {
			t.Errorf("%s/%s/%s delivered %.3f, floor %.1f", r.Name, r.Scheme, r.Workload, r.DeliveredRate, floor)
		}
		if r.Workload == "collective" && r.MakespanUS <= 0 {
			t.Errorf("%s/%s collective did not complete", r.Name, r.Scheme)
		}
		if strings.HasPrefix(r.Scheme, "mp-") && r.K < 2 {
			t.Errorf("%s parsed k=%d", r.Scheme, r.K)
		}
	}
	if !sawCustom {
		t.Error("DSN series missing the dsn-custom comparator")
	}
}

// TestDiversitySweepBounds pins the static headroom analysis: the
// realized disjoint path count never exceeds the Menger min cut, and
// raising k can only raise the realized mean.
func TestDiversitySweepBounds(t *testing.T) {
	rows, err := DiversitySweep(context.Background(), harness.Serial(), 16, []int{2, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Names)*2 {
		t.Fatalf("rows = %d, want %d", len(rows), len(Names)*2)
	}
	byTopo := map[string][]DiversityRow{}
	for _, r := range rows {
		if float64(r.DisjointMin) > float64(r.MinCutMin) || r.DisjointMean > r.MinCutMean {
			t.Errorf("%s k=%d: realized disjoint paths exceed the min-cut bound: %+v", r.Name, r.K, r.Diversity)
		}
		if r.Pairs != 16*15/2 {
			t.Errorf("%s k=%d: pairs = %d", r.Name, r.K, r.Pairs)
		}
		byTopo[r.Name] = append(byTopo[r.Name], r)
	}
	for name, rs := range byTopo { // dsnlint:ok maprange independent per-topology assertions
		if len(rs) == 2 && rs[1].DisjointMean < rs[0].DisjointMean {
			t.Errorf("%s: k=4 realized fewer disjoint paths than k=2", name)
		}
	}
}
