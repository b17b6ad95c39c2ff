package verify

import (
	"strings"
	"testing"

	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/multipath"
	"dsnet/internal/topology"
)

// TestMultipathCombosCertify runs the multipath slice of the standard
// matrix: every graph family × k combination must certify (acyclic VC0
// escape, totality and Duato consistency of the escape, table totality
// and per-pair disjointness).
func TestMultipathCombosCertify(t *testing.T) {
	combos := StandardCombos(DefaultOptions())
	ran := 0
	for _, cb := range combos {
		if !strings.Contains(cb.Name, "/multipath-k") {
			continue
		}
		ran++
		cert := cb.Run()
		if !cert.OK() {
			t.Errorf("%s: status %v, err %q, failed checks %v",
				cb.Name, cert.Status, cert.Err, cert.FailedChecks())
		}
	}
	if want := 9; ran != want { // 3 graph families × k ∈ {2,4,8}
		t.Fatalf("multipath combos registered = %d, want %d", ran, want)
	}
}

// TestMultipathTotalityRejectsBadTable pins that the totality check
// catches a table whose path sets are not edge-disjoint.
func TestMultipathTotalityRejectsBadTable(t *testing.T) {
	tor, err := topology.Torus2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := tor.Graph()
	tab, err := multipath.BuildTable(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := MultipathTotality(g, tab); err != nil {
		t.Fatalf("good table rejected: %v", err)
	}
	// Duplicate a path inside one set: no longer disjoint (and no longer
	// strictly ordered, but disjointness is what this test aims at).
	ps := tab.Set(0, 5)
	if len(ps.Paths) < 2 {
		t.Fatalf("want >= 2 paths for pair 0->5, got %d", len(ps.Paths))
	}
	ps.Paths[1] = ps.Paths[0]
	if err := MultipathTotality(g, tab); err == nil {
		t.Fatal("overlapping path set accepted")
	}
}

// TestDegradedMultipathStaysCertified re-certifies the multipath scheme
// after every event of a fail-then-repair plan: the rebuilt escape must
// stay acyclic at each epoch, the live-path accounting must move while
// faults are armed, and full repair must restore the pristine
// certificate exactly.
func TestDegradedMultipathStaysCertified(t *testing.T) {
	d, err := core.New(64, core.CeilLog2(64)-1)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	tab, err := multipath.BuildTable(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := CertifyFaultTimeline(g, failRepairPlan(), func(ed, sd []bool) Certificate {
		return CertifyDegradedMultipath(g, tab, ed, sd, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	base := &entries[0].Cert
	if base.Status != StatusCertified || !base.OK() {
		t.Fatalf("pristine baseline not certified: %v %v", base.Status, base.FailedChecks())
	}
	if det := checkDetail(base, "faulted:multipath-live"); !strings.Contains(det, "0 diverted to escape, 0 disconnected") {
		t.Fatalf("pristine fabric should divert nothing: %q", det)
	}
	for _, en := range entries {
		if en.Cert.Status != StatusCertified {
			t.Errorf("event %d (cycle %d): degraded escape cyclic, witness %s",
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
	if a, b := checkDetail(base, "faulted:multipath-live"), checkDetail(mid, "faulted:multipath-live"); a == b {
		t.Errorf("live-path accounting unchanged under faults: %q", a)
	}
	last := &entries[len(entries)-1].Cert
	if !SameCertificate(base, last) {
		t.Errorf("repair did not restore the certificate: base %d/%d, healed %d/%d",
			base.Channels, base.Deps, last.Channels, last.Deps)
	}
	if a, b := checkDetail(base, "faulted:multipath-live"), checkDetail(last, "faulted:multipath-live"); a != b {
		t.Errorf("repair did not restore live-path accounting: %q vs %q", a, b)
	}
}

// TestDegradedMultipathUnroutableOffRoot pins the live/diverted split
// on a fault set that leaves an off-root component whose up*/down*
// ranking has no legal route for some pair. Cutting 2-3 and 3-4 off a
// six-switch fabric leaves {0, 1, 2} with the root and the path 3-5-4
// apart from it. Off-root switches rank by ID, so 3->4 and 4->3 would go
// down to 5 and then up, and the escape offers them no hop; their one
// sprayed path (k=1), the dead link 3-4, is gone too. They count as
// disconnected, not diverted, as do the 18 pairs across the cut.
func TestDegradedMultipathUnroutableOffRoot(t *testing.T) {
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {3, 5}, {5, 4}} {
		g.AddEdge(e[0], e[1], graph.KindRandom)
	}
	tab, err := multipath.BuildTable(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	edgeDead := make([]bool, g.M())
	edgeDead[2], edgeDead[3] = true, true
	cert := CertifyDegradedMultipath(g, tab, edgeDead, nil, 1)
	if !cert.OK() {
		t.Fatalf("status %v, err %q, failed checks %v", cert.Status, cert.Err, cert.FailedChecks())
	}
	want := "10 pairs keep a sprayed path, 0 diverted to escape, 20 disconnected"
	if det := checkDetail(&cert, "faulted:multipath-live"); det != want {
		t.Errorf("detail %q, want %q", det, want)
	}
}

// checkDetail returns the Detail of the named check, or "".
func checkDetail(c *Certificate, name string) string {
	for _, ch := range c.Checks {
		if ch.Name == name {
			return ch.Detail
		}
	}
	return ""
}
