package recovery

import (
	"strings"
	"testing"

	"dsnet/internal/topology"
)

func TestConfigNormalizeValidate(t *testing.T) {
	c := Config{}.Normalize()
	if c != Default() {
		t.Fatalf("Normalize of zero config = %+v, want Default %+v", c, Default())
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	// Explicit fields survive normalization.
	c = Config{StallThresholdCycles: 99, ConfirmCycles: 7, AbortBudget: 2, MaxEvents: -1}.Normalize()
	if c.StallThresholdCycles != 99 || c.ConfirmCycles != 7 || c.AbortBudget != 2 || c.MaxEvents != -1 {
		t.Fatalf("Normalize clobbered explicit fields: %+v", c)
	}
	for _, bad := range []Config{
		{StallThresholdCycles: -1, ConfirmCycles: 1, AbortBudget: 1},
		{StallThresholdCycles: 1, ConfirmCycles: -1, AbortBudget: 1},
		{StallThresholdCycles: 1, ConfirmCycles: 1, AbortBudget: -3},
		{StallThresholdCycles: 1, ConfirmCycles: 1, AbortBudget: 1, GraceCycles: -5},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", bad)
		}
	}
}

func TestTrackerAccounting(t *testing.T) {
	tr := NewTracker(Config{MaxEvents: 3}.Normalize())
	tr.Confirmed(100, 1, 4)
	tr.Confirmed(110, 2, 5)
	tr.Aborted(120, 1, 4, 8, 1, false)
	tr.Release(125, 2, 5)
	tr.Confirmed(130, 3, 6)
	tr.Aborted(140, 3, 6, 8, 5, true)
	if tr.Detected != 3 || tr.Recovered != 1 || tr.Released != 1 || tr.Lost != 1 {
		t.Fatalf("counters: detected %d recovered %d released %d lost %d", tr.Detected, tr.Recovered, tr.Released, tr.Lost)
	}
	if tr.Detected != tr.Recovered+tr.Released+tr.Lost {
		t.Fatal("resolution identity broken")
	}
	if tr.AbortedFlits != 16 {
		t.Fatalf("aborted flits %d, want 16", tr.AbortedFlits)
	}
	// MaxEvents caps the log but never the counters.
	if len(tr.Events) != 3 {
		t.Fatalf("event log has %d entries, want cap 3", len(tr.Events))
	}
	if got := tr.Events[0].String(); !strings.Contains(got, "confirmed") {
		t.Fatalf("event 0 = %q", got)
	}
}

func TestTrackerAbortPacing(t *testing.T) {
	tr := NewTracker(Config{GraceCycles: 10}.Normalize())
	if !tr.CanAbort(0) {
		t.Fatal("first abort must always be allowed")
	}
	tr.Aborted(100, 1, 0, 4, 1, false)
	if tr.CanAbort(105) {
		t.Fatal("abort inside the grace window allowed")
	}
	if !tr.CanAbort(111) {
		t.Fatal("abort after the grace window blocked")
	}
}

func TestTrackerDrainEpochs(t *testing.T) {
	tr := NewTracker(Config{}.Normalize())
	if tr.Draining() {
		t.Fatal("fresh tracker draining")
	}
	tr.DrainBegin(1000)
	tr.DrainBegin(1200) // overlapping epoch extends, not restarts
	if !tr.Draining() {
		t.Fatal("not draining after DrainBegin")
	}
	if got := tr.PausedThrough(1500); got != 500 {
		t.Fatalf("open-epoch paused = %d, want 500", got)
	}
	tr.DrainEnd(1600)
	tr.DrainEnd(1700) // idempotent
	if tr.DrainEpochs != 1 || tr.DrainPaused != 600 {
		t.Fatalf("epochs %d paused %d, want 1/600", tr.DrainEpochs, tr.DrainPaused)
	}
	if tr.Draining() {
		t.Fatal("still draining after DrainEnd")
	}
}

// TestEscapeRebuild pins the escape network life cycle: pristine tables
// route everywhere, a masked graph routes only on survivors, and a
// repair (empty masks again) restores full reach.
func TestEscapeRebuild(t *testing.T) {
	tor, err := topology.Torus2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := tor.Graph()
	esc, err := NewEscape(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if esc.VC() != 1 {
		t.Fatalf("escape VC = %d, want VCs-1 = 1", esc.VC())
	}
	hops := func() int {
		// Walk 0 -> N-1 hop by hop; returns hop count or -1 if stuck.
		at, descended := 0, false
		for n := 0; n < g.N(); n++ {
			if at == g.N()-1 {
				return n
			}
			next, down := esc.NextHop(at, g.N()-1, descended)
			if next < 0 {
				return -1
			}
			descended = descended || down
			at = next
		}
		return -1
	}
	if hops() < 0 {
		t.Fatal("pristine escape network cannot route 0 -> 15")
	}
	// Kill switch 0's partner: root scan must move on and survivors
	// still reach each other.
	swDead := make([]bool, g.N())
	swDead[0] = true
	esc.Rebuild(g, nil, swDead)
	next, _ := esc.NextHop(1, g.N()-1, false)
	if next < 0 {
		t.Fatal("degraded escape network cannot route 1 -> 15")
	}
	if next == 0 {
		t.Fatal("degraded escape network routes through the dead switch")
	}
	// Repair: the pristine tables come back.
	esc.Rebuild(g, nil, nil)
	if hops() < 0 {
		t.Fatal("repaired escape network cannot route 0 -> 15")
	}
}
