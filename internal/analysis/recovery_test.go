package analysis

import (
	"context"
	"strings"
	"testing"
)

// TestRecoverySweepModesAndIdentity runs the recovery-cost sweep on the
// custom-routed DSN target and pins its invariants: one row per
// (fraction, mode) in table order, every row clean, the three-way
// resolution identity on every row, unarmed rows free of recovery
// counters, and drain epochs only in drain mode. (Zero-fault armed rows
// may legitimately show aborts: the sweep's aggressive detector tuning
// trades inertness for guaranteed completion — that overhead is the
// cost being measured.)
func TestRecoverySweepModesAndIdentity(t *testing.T) {
	if testing.Short() || raceDetectorEnabled {
		t.Skip("recovery-cost sweep runs full simulations; skipped in -short or -race mode")
	}
	fracs := []float64{0, 0.04}
	rows, err := RecoverySweep(context.Background(), nil, "dsn-v-custom", 36, 3, fracs, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(fracs)*len(RecoveryModes) {
		t.Fatalf("%d rows, want %d", len(rows), len(fracs)*len(RecoveryModes))
	}
	for i, r := range rows {
		wantMode := RecoveryModes[i%len(RecoveryModes)]
		wantFrac := fracs[i/len(RecoveryModes)]
		if r.Mode != wantMode || r.FailFraction != wantFrac {
			t.Fatalf("row %d is (%s, %g), want (%s, %g)", i, r.Mode, r.FailFraction, wantMode, wantFrac)
		}
		if r.Monitor != "" {
			t.Errorf("row %d (%s, frac %g): tripped %s", i, r.Mode, r.FailFraction, r.Monitor)
		}
		if r.Delivered <= 0 {
			t.Errorf("row %d: delivered %d", i, r.Delivered)
		}
		if r.Detected != r.Recovered+r.Released+r.Lost {
			t.Errorf("row %d: resolution identity broken: det %d rec %d rel %d lost %d",
				i, r.Detected, r.Recovered, r.Released, r.Lost)
		}
		if r.Mode == "off" && (r.Detected != 0 || r.AbortedFlits != 0 || r.DrainEpochs != 0) {
			t.Errorf("row %d: recovery counters on an unarmed run: %+v", i, r)
		}
		if r.Mode != "recover+drain" && r.DrainEpochs != 0 {
			t.Errorf("row %d (%s): %d drain epochs without drain mode", i, r.Mode, r.DrainEpochs)
		}
		if r.Mode == "recover+drain" && r.FailFraction > 0 && r.DrainEpochs == 0 {
			t.Errorf("row %d: drain mode saw no drain epoch at frac %g", i, r.FailFraction)
		}
	}
	var b strings.Builder
	WriteRecoveryTable(&b, rows)
	if !strings.Contains(b.String(), "recover+drain") || !strings.Contains(b.String(), "paused_cy") {
		t.Fatalf("table missing expected columns:\n%s", b.String())
	}
}
