package verify

import (
	"testing"

	"dsnet/internal/core"
	"dsnet/internal/netsim"
	"dsnet/internal/routing"
	"dsnet/internal/topology"
)

// failRepairPlan kills a ring link, a second ring link, and a switch,
// then repairs them in reverse order — a full fail-then-heal cycle.
func failRepairPlan() *netsim.FaultPlan {
	return netsim.NewFaultPlan(
		netsim.LinkDown(10, 3),
		netsim.LinkDown(20, 17),
		netsim.SwitchDown(30, 40),
		netsim.SwitchUp(40, 40),
		netsim.LinkUp(50, 17),
		netsim.LinkUp(60, 3),
	)
}

// TestDegradedUpDownStaysCertified re-runs the escape-network
// certification after each FaultPlan event: the up*/down* rebuild must
// stay acyclic on every degraded subgraph, and repairing every fault
// must restore the pristine certificate exactly.
func TestDegradedUpDownStaysCertified(t *testing.T) {
	g, err := topology.DLNRandom(64, 2, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := CertifyFaultTimeline(g, failRepairPlan(), func(ed, sd []bool) Certificate {
		return CertifyDegradedUpDown(g, ed, sd, 4)
	})
	if err != nil {
		t.Fatal(err)
	}
	base := &entries[0].Cert
	if base.Status != StatusCertified || !base.OK() {
		t.Fatalf("pristine baseline not certified: %v %v", base.Status, base.FailedChecks())
	}
	for _, en := range entries {
		if en.Cert.Status != StatusCertified {
			t.Errorf("event %d (cycle %d): degraded up*/down* cyclic, witness %s",
				en.Index, en.Cycle, en.Cert.WitnessString())
		}
		if !en.Cert.OK() {
			t.Errorf("event %d: failed checks %v", en.Index, en.Cert.FailedChecks())
		}
	}
	mid := &entries[3].Cert // both links and the switch dead
	if SameCertificate(base, mid) {
		t.Error("degraded certificate identical to baseline; faults not applied")
	}
	last := &entries[len(entries)-1].Cert
	if !SameCertificate(base, last) {
		t.Errorf("repair did not restore the certificate: base %d/%d, healed %d/%d",
			base.Channels, base.Deps, last.Channels, last.Deps)
	}
}

// TestDegradedDSNDetourRestoredByRepair statically replays the DSN
// fault re-sourcing (ring detours) after each event. The basic variant
// is cyclic even pristine (ring-shared FINISH — the known negative);
// what the regression pins is that the degraded CDGs differ from the
// baseline while faults are live and that full repair restores the
// exact original certificate.
func TestDegradedDSNDetourRestoredByRepair(t *testing.T) {
	d, err := core.New(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := CertifyFaultTimeline(d.Graph(), failRepairPlan(), func(ed, sd []bool) Certificate {
		return CertifyDegradedDSN(d, ed, sd)
	})
	if err != nil {
		t.Fatal(err)
	}
	base := &entries[0].Cert
	if base.Status != StatusCyclic {
		t.Fatalf("pristine basic DSN should be cyclic (ring-shared FINISH), got %v", base.Status)
	}
	for i := 1; i < len(entries)-1; i++ {
		if SameCertificate(base, &entries[i].Cert) {
			t.Errorf("event %d: degraded certificate identical to baseline; faults not applied", entries[i].Index)
		}
	}
	last := &entries[len(entries)-1].Cert
	if !SameCertificate(base, last) {
		t.Errorf("repair did not restore the certificate: base %d/%d/%v, healed %d/%d/%v",
			base.Channels, base.Deps, base.Status, last.Channels, last.Deps, last.Status)
	}
}

// TestDegradedDSNRingPartitionDrops pins the timeout-drop accounting:
// two dead ring links partition the ring-only detour walk, so pairs
// whose detour must cross both cuts degrade to transport-timeout drops
// rather than channels (the simulator's documented backstop).
func TestDegradedDSNRingPartitionDrops(t *testing.T) {
	d, err := core.New(64, 5)
	if err != nil {
		t.Fatal(err)
	}
	edgeDead := make([]bool, d.Graph().M())
	swDead := make([]bool, d.Graph().N())
	edgeDead[3] = true
	cert1 := CertifyDegradedDSN(d, edgeDead, swDead)
	edgeDead[17] = true
	cert2 := CertifyDegradedDSN(d, edgeDead, swDead)

	if det := cert1.Checks[0].Detail; det == "" || det == cert2.Checks[0].Detail {
		t.Errorf("delivery accounting did not change between one and two ring cuts: %q", det)
	}
	// One ring cut leaves every detour a reversed walk to completion;
	// two cuts strand the arc between them.
	if want := "0 pairs degraded to timeout-drop"; !hasSuffix(cert1.Checks[0].Detail, want) {
		t.Errorf("single ring cut should drop nothing, got %q", cert1.Checks[0].Detail)
	}
	if hasSuffix(cert2.Checks[0].Detail, "0 pairs degraded to timeout-drop") {
		t.Errorf("two ring cuts should strand pairs, got %q", cert2.Checks[0].Detail)
	}
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

// TestDegradedDSNShortMasks pins that nil or short fault masks count as
// alive: a link-only fault set passed without a switch mask certifies
// exactly as with an all-alive one (the router itself indexes full-size
// masks).
func TestDegradedDSNShortMasks(t *testing.T) {
	d, err := core.NewV(36)
	if err != nil {
		t.Fatal(err)
	}
	edgeDead := make([]bool, d.Graph().M())
	edgeDead[3], edgeDead[17] = true, true
	full := CertifyDegradedDSN(d, edgeDead, make([]bool, d.N))
	short := CertifyDegradedDSN(d, edgeDead[:18], nil)
	if !SameCertificate(&full, &short) || full.Checks[0].Detail != short.Checks[0].Detail {
		t.Errorf("short masks certify differently: %v %d/%d %q vs %v %d/%d %q",
			short.Status, short.Channels, short.Deps, short.Checks[0].Detail,
			full.Status, full.Channels, full.Deps, full.Checks[0].Detail)
	}
}

// TestUpDownChannelsAllocs bounds the allocations of one degraded
// up*/down* escape CDG on DSN-V-36 with two dead links and a dead
// switch. The routes are recorded once at one channel class and the
// CDG is lifted to the VC width, so 4 VCs must allocate exactly what
// 1 VC does; enumerating the VC cross product allocates per class.
func TestUpDownChannelsAllocs(t *testing.T) {
	d, err := core.NewV(36)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	edgeDead, swDead := make([]bool, g.M()), make([]bool, g.N())
	edgeDead[3], edgeDead[17], swDead[20] = true, true, true
	alive, ud := routing.Surviving(g, edgeDead, swDead)
	allocs := make(map[int]float64)
	for _, vcs := range []int{1, 4} {
		allocs[vcs] = testing.AllocsPerRun(5, func() {
			if _, err := UpDownChannels(alive, ud, vcs); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[4] != allocs[1] {
		t.Errorf("%.0f allocations at 4 VCs, %.0f at 1 VC; want the same", allocs[4], allocs[1])
	}
	// About 2% above the measured 145 allocations at either width.
	if bound := 148.0; allocs[4] > bound {
		t.Errorf("%.0f allocations at 4 VCs, bound %.0f", allocs[4], bound)
	}
}
