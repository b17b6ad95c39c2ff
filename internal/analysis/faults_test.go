package analysis

import (
	"context"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"dsnet/internal/netsim"
)

// Property: a zero failure fraction must leave every topology fully
// connected with no path inflation and no disconnected trials.
func TestFaultSweepZeroFractionIsClean(t *testing.T) {
	rows, err := FaultSweep(context.Background(), nil, 64, []float64{0}, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.ConnectedRate != 1 {
			t.Fatalf("%s: connected rate %v at frac 0", r.Name, r.ConnectedRate)
		}
		if r.DisconnectedTrials != 0 {
			t.Fatalf("%s: %d disconnected trials at frac 0", r.Name, r.DisconnectedTrials)
		}
		if r.DiameterInfl != 1 || r.ASPLInfl != 1 {
			t.Fatalf("%s: inflation at frac 0: %+v", r.Name, r)
		}
	}
}

// Property: the sweep is a pure function of its seed.
func TestFaultSweepDeterministic(t *testing.T) {
	a, err := FaultSweep(context.Background(), nil, 64, []float64{0.05, 0.15}, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FaultSweep(context.Background(), nil, 64, []float64{0.05, 0.15}, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// DisconnectedTrials must complement the connected count and show up in
// the rendered table. A high fraction guarantees splits (and exercises
// pickFailures at a density where rejection sampling used to spin).
func TestFaultSweepDisconnectedTrialsCounted(t *testing.T) {
	trials := 4
	rows, err := FaultSweep(context.Background(), nil, 64, []float64{0.9}, trials, 2)
	if err != nil {
		t.Fatal(err)
	}
	split := 0
	for _, r := range rows {
		if got := int(r.ConnectedRate*float64(trials) + 0.5); got+r.DisconnectedTrials != trials {
			t.Fatalf("%s: connected %d + disconnected %d != %d trials", r.Name, got, r.DisconnectedTrials, trials)
		}
		split += r.DisconnectedTrials
	}
	if split == 0 {
		t.Fatal("no trial disconnected any topology at 90% failures")
	}
	var sb strings.Builder
	WriteFaultTable(&sb, rows)
	if !strings.Contains(sb.String(), "disc_trials") {
		t.Fatal("disconnected-trials column missing from table")
	}
}

func TestPickFailures(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, tc := range []struct{ m, want int }{{100, 25}, {100, 0}, {10, 9}} {
		kill := pickFailures(tc.m, float64(tc.want)/float64(tc.m), rng)
		if len(kill) != tc.m {
			t.Fatalf("mask length %d, want %d", len(kill), tc.m)
		}
		killed := 0
		for _, k := range kill {
			if k {
				killed++
			}
		}
		if killed != tc.want {
			t.Fatalf("killed %d of %d, want %d", killed, tc.m, tc.want)
		}
	}
}

// The live-fault degradation sweep: fraction 0 is the clean baseline;
// under failures the fault-aware router keeps the network delivering
// (no watchdog trips) with nonzero fault activity.
func TestDegradationSweep(t *testing.T) {
	cfg := simCfg()
	rows, err := DegradationSweep(context.Background(), nil, cfg, 64, []float64{0, 0.05}, 0.06, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	byFrac := map[string]map[float64]DegradationRow{}
	for _, r := range rows {
		if byFrac[r.Name] == nil {
			byFrac[r.Name] = map[float64]DegradationRow{}
		}
		byFrac[r.Name][r.FailFraction] = r
		if r.Watchdog {
			t.Fatalf("%s at frac %.2f tripped the watchdog", r.Name, r.FailFraction)
		}
	}
	for name, m := range byFrac {
		clean, faulty := m[0], m[0.05]
		if clean.Dropped != 0 || clean.Lost != 0 || clean.Rerouted != 0 {
			t.Fatalf("%s baseline shows fault activity: %+v", name, clean)
		}
		if clean.DeliveredRate < 0.97 {
			t.Fatalf("%s baseline delivered rate %.3f", name, clean.DeliveredRate)
		}
		if faulty.FailedLinks == 0 {
			t.Fatalf("%s: no links failed at frac 0.05", name)
		}
		if faulty.Rerouted == 0 {
			t.Fatalf("%s: no reroutes under live faults", name)
		}
		if faulty.AcceptedGbps < 0.75*clean.AcceptedGbps {
			t.Fatalf("%s: throughput degraded more than 25%%: %.2f vs %.2f",
				name, faulty.AcceptedGbps, clean.AcceptedGbps)
		}
	}
	var sb strings.Builder
	WriteDegradationTable(&sb, rows)
	if !strings.Contains(sb.String(), "rerouted") {
		t.Fatal("degradation table header missing")
	}
	if _, err := DegradationSweep(context.Background(), nil, netsim.Config{}, 64, []float64{0}, 0.06, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
}
