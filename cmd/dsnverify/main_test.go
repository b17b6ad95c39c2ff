package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dsnet/internal/verify"
)

var update = flag.Bool("update", false, "rewrite testdata/report.golden from the current certifiers")

const reportGolden = "testdata/report.golden"

// TestReportGolden pins the full verbose report, fault timelines
// included, byte for byte: every certificate's status, channel and
// dependency counts, witness and check details. Only -update rewrites
// it, for an intended change of a certificate.
func TestReportGolden(t *testing.T) {
	var sb strings.Builder
	if err := run(opts{verbose: true, faults: true}, &sb); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(reportGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reportGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(reportGolden)
	if err != nil {
		t.Fatalf("%v (run go test -run TestReportGolden -update to create it)", err)
	}
	if got := sb.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("report differs from %s at line %d:\n got: %s\nwant: %s", reportGolden, i+1, g, w)
			}
		}
	}
}

// TestRunMatrix exercises the standard matrix: it must pass, list every
// expected combination, and print the witness for the known-negative.
func TestRunMatrix(t *testing.T) {
	var sb strings.Builder
	if err := run(opts{}, &sb); err != nil {
		t.Fatalf("matrix missed expectations: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"torus8x8/dor-dateline/2vc",
		"dln-2-2-64/duato-escape/4vc",
		"dsn-e-126/custom/3vc",
		"dsn-v-126/custom/classes",
		"dsn-64/custom/ring-shared-finish",
		"witness:",
		"cyclic as proven",
		"met their expectation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("report contains failures:\n%s", out)
	}
}

// TestRunReportFile covers -o: the written artifact equals the stdout
// report.
func TestRunReportFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.txt")
	var sb strings.Builder
	if err := run(opts{out: path}, &sb); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != sb.String() {
		t.Error("report file differs from stdout report")
	}
}

// TestRunFaultTimeline covers -faults: the timeline section appears and
// repair restores both pristine certificates.
func TestRunFaultTimeline(t *testing.T) {
	var sb strings.Builder
	if err := run(opts{faults: true}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"fault/repair timeline",
		"updown-escape",
		"dsn-ring-detour",
		"[repair restored the pristine certificate]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q", want)
		}
	}
	if strings.Contains(out, "DID NOT RESTORE") {
		t.Errorf("repair failed to restore a certificate:\n%s", out)
	}
}

// TestRunFaultTimelineRepairFailure pins the failure path of -faults: a
// timeline whose repaired certificate differs from its baseline is
// flagged in the report, the timelines after it are still rendered,
// the report is printed and written to -o, and only then does run
// return the error.
func TestRunFaultTimelineRepairFailure(t *testing.T) {
	healthy, err := faultTimelines()
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	broken := timeline{"never-restores", func(ed, sd []bool) verify.Certificate {
		calls++ // every certificate differs from the one before it
		return verify.Certificate{Status: verify.StatusCertified, Channels: calls}
	}, false}
	substituteTimelines(t, broken, healthy.timelines[0])

	path := filepath.Join(t.TempDir(), "report.txt")
	var sb strings.Builder
	err = run(opts{faults: true, out: path}, &sb)
	if err == nil || !strings.Contains(err.Error(), "never-restores: repair did not restore") {
		t.Fatalf("run error = %v, want the failed repair named", err)
	}
	out := sb.String()
	for _, want := range []string{
		"met their expectation",
		"never-restores   event 5 @60    status=certified channels=7    deps=0      [REPAIR DID NOT RESTORE THE CERTIFICATE]",
		"updown-escape    event 5 @60",
		"[repair restored the pristine certificate]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != out {
		t.Error("report file differs from stdout report")
	}
}

// substituteTimelines runs the -faults section of the tests below over
// tls instead of the standard timelines, on the same plan and fabric.
func substituteTimelines(t *testing.T, tls ...timeline) {
	t.Helper()
	healthy, err := faultTimelines()
	if err != nil {
		t.Fatal(err)
	}
	fs := healthy
	fs.timelines = tls
	orig := faultTimelines
	faultTimelines = func() (faultSection, error) { return fs, nil }
	t.Cleanup(func() { faultTimelines = orig })
}

// TestRunFaultTimelineNotCertified pins the per-event gate of -faults: a
// must-pass timeline that is cyclic after one event (the switch death,
// event 2) fails the run and marks that event only, although its repair
// restores the pristine certificate. A record-only timeline with the
// same verdicts fails nothing.
func TestRunFaultTimelineNotCertified(t *testing.T) {
	healthy, err := faultTimelines()
	if err != nil {
		t.Fatal(err)
	}
	escape := healthy.timelines[0].certify
	cyclicWhileSwitchDead := func(ed, sd []bool) verify.Certificate {
		c := escape(ed, sd)
		if sd[40] {
			c.Status = verify.StatusCyclic
		}
		return c
	}
	substituteTimelines(t,
		timeline{"escape-gated", cyclicWhileSwitchDead, true},
		timeline{"escape-recorded", cyclicWhileSwitchDead, false})

	var sb strings.Builder
	err = run(opts{faults: true}, &sb)
	if err == nil || err.Error() != "escape-gated: event 2 @30 not certified" {
		t.Fatalf("run error = %v, want only the gated timeline's event 2 named", err)
	}
	out := sb.String()
	var marked []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "NOT CERTIFIED") {
			marked = append(marked, line)
		}
	}
	want := "escape-gated     event 2 @30    status=cyclic    channels=896  deps=6976   [NOT CERTIFIED]"
	if len(marked) != 1 || marked[0] != want {
		t.Errorf("marked lines %q, want only %q:\n%s", marked, want, out)
	}
	if strings.Count(out, "[repair restored the pristine certificate]") != 2 {
		t.Errorf("both repairs should restore their certificates:\n%s", out)
	}
}

// TestRunFaultTimelineErrorDetail pins how -faults renders a certifier
// error: the entry's row is followed by the certificate's error, as in
// the matrix section.
func TestRunFaultTimelineErrorDetail(t *testing.T) {
	substituteTimelines(t, timeline{"build-fails", func(ed, sd []bool) verify.Certificate {
		if sd[40] {
			return verify.Certificate{Status: verify.StatusError, Err: "router build failed"}
		}
		return verify.Certificate{Status: verify.StatusCertified}
	}, false})

	var sb strings.Builder
	if err := run(opts{faults: true}, &sb); err != nil {
		t.Fatal(err)
	}
	want := "build-fails      event 2 @30    status=error     channels=0    deps=0    \n    error: router build failed\n"
	if out := sb.String(); !strings.Contains(out, want) || strings.Count(out, "error:") != 1 {
		t.Errorf("report should show the error under event 2 only:\n%s", out)
	}
}
