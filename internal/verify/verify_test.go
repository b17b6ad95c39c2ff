package verify

import (
	"strings"
	"testing"

	"dsnet/internal/graph"
	"dsnet/internal/netsim"
)

// TestCertifyAllExpectations pins the certification matrix: every
// registered combination must meet its expectation — positives certified
// with every check passing, known-negatives cyclic with a concrete
// witness cycle.
func TestCertifyAllExpectations(t *testing.T) {
	certs := CertifyAll(DefaultOptions())
	if len(certs) < 12 {
		t.Fatalf("expected at least 12 registered combinations, got %d", len(certs))
	}
	for _, cert := range certs {
		if cert.Err != "" {
			t.Errorf("%s: engine error: %s", cert.Combo, cert.Err)
			continue
		}
		if !cert.OK() {
			t.Errorf("%s: status %v (expectCyclic=%v), failed checks %v",
				cert.Combo, cert.Status, cert.ExpectCyclic, cert.FailedChecks())
		}
		if cert.ExpectCyclic {
			if cert.Status != StatusCyclic {
				t.Errorf("%s: known-negative certified acyclic", cert.Combo)
			}
			if len(cert.Witness) == 0 {
				t.Errorf("%s: cyclic without a witness", cert.Combo)
			}
		} else if cert.Status != StatusCertified {
			t.Errorf("%s: expected certified, got %v (witness %s)",
				cert.Combo, cert.Status, cert.WitnessString())
		}
		if cert.Channels == 0 || cert.Deps == 0 {
			t.Errorf("%s: degenerate CDG (%d channels, %d deps)", cert.Combo, cert.Channels, cert.Deps)
		}
	}
}

// TestKnownNegativeWitness checks the contract on the ring-shared FINISH
// configuration: the basic DSN without a dedicated FINISH channel class
// must be reported cyclic, and the witness must be a closed cycle of
// real channels.
func TestKnownNegativeWitness(t *testing.T) {
	var found bool
	for _, cert := range CertifyAll(DefaultOptions()) {
		if cert.Combo != "dsn-64/custom/ring-shared-finish" {
			continue
		}
		found = true
		if cert.Status != StatusCyclic {
			t.Fatalf("ring-shared FINISH not reported cyclic: %v", cert.Status)
		}
		w := cert.Witness
		if len(w) < 3 {
			t.Fatalf("witness too short: %v", w)
		}
		if w[0] != w[len(w)-1] {
			t.Errorf("witness not closed: starts %v ends %v", w[0], w[len(w)-1])
		}
		for i := 0; i+1 < len(w); i++ {
			if w[i].To != w[i+1].From {
				t.Errorf("witness discontinuous at %d: %v -> %v", i, w[i], w[i+1])
			}
		}
		if s := cert.WitnessString(); !strings.Contains(s, "=>") {
			t.Errorf("witness string malformed: %q", s)
		}
	}
	if !found {
		t.Fatal("known-negative combo dsn-64/custom/ring-shared-finish not registered")
	}
}

// TestCertifyAllDeterministic pins that two full runs produce identical
// reports, witness bytes included — the property the CI artifact diffing
// relies on.
func TestCertifyAllDeterministic(t *testing.T) {
	a := CertifyAll(DefaultOptions())
	b := CertifyAll(DefaultOptions())
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Combo != b[i].Combo || a[i].Status != b[i].Status ||
			a[i].Channels != b[i].Channels || a[i].Deps != b[i].Deps {
			t.Errorf("%s: runs disagree on summary", a[i].Combo)
		}
		if a[i].WitnessString() != b[i].WitnessString() {
			t.Errorf("%s: witness not deterministic:\n  %s\n  %s",
				a[i].Combo, a[i].WitnessString(), b[i].WitnessString())
		}
	}
}

// offEdgeRouter routes along the path 0-1-2, except that a packet at 0
// for 2 jumps straight there, a hop that rides no edge.
type offEdgeRouter struct{}

func (offEdgeRouter) Candidates(st netsim.PacketState, sw int, buf []netsim.Candidate) []netsim.Candidate {
	next := int32(sw + 1)
	switch {
	case int32(sw) == st.DstSw:
		return buf
	case sw == 0 && st.DstSw == 2:
		next = 2
	case int32(sw) > st.DstSw:
		next = int32(sw - 1)
	}
	return append(buf, netsim.Candidate{Next: next, Escape: true})
}

// TestWalkReportsOffEdgeCandidate pins that a walked state its check
// rejects stays out of the CDG: a candidate riding no edge of the graph
// is reported as a violation, not added as a channel (which panics).
func TestWalkReportsOffEdgeCandidate(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, graph.KindRing)
	g.AddEdge(1, 2, graph.KindRing)
	w := walkRouter(offEdgeRouter{}, g, 1, nil, duatoConsistent(g, nil))
	if w.violation == nil || !strings.Contains(w.violation.Error(), "rides no edge") {
		t.Fatalf("violation %v, want a candidate that rides no edge", w.violation)
	}
	// The legal routes ride the four link directions; 0->2 adds none.
	if w.cdg.Channels() != 4 {
		t.Errorf("%d channels recorded, want the 4 link directions", w.cdg.Channels())
	}
}
