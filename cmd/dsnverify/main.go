// Command dsnverify statically certifies deadlock freedom and
// paper-theorem invariants for every registered topology x routing x
// VC-assignment combination: it builds each combination's full channel
// dependency graph, applies the Dally-Seitz acyclicity criterion, and
// evaluates the paper's bounds (degree caps, diameter <= 2.5p+r, route
// length <= 3p+r, DSN-D <= 7p/4) plus routing-table totality as
// executable checks.
//
// Combinations registered as known-negative (the basic DSN whose FINISH
// phase shares the ring without a dedicated channel class) must come
// out cyclic, and the report prints the concrete witness cycle; every
// other combination must certify. The exit status is non-zero the
// moment any combination misses its expectation, which is what CI
// gates on. With -faults it is also non-zero when the degraded
// up*/down* escape is not certified after some fault event, or when
// repair does not restore a pristine certificate.
//
// Usage:
//
//	dsnverify                 # certify the standard matrix
//	dsnverify -v              # include every check, not just failures
//	dsnverify -o report.txt   # also write the report to a file
//	dsnverify -faults         # append the fault/repair timeline section
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dsnet/internal/core"
	"dsnet/internal/graph"
	"dsnet/internal/netsim"
	"dsnet/internal/verify"
)

type opts struct {
	verbose bool
	faults  bool
	out     string
}

func main() {
	var o opts
	flag.BoolVar(&o.verbose, "v", false, "print every check result, not just failures")
	flag.BoolVar(&o.faults, "faults", false, "append the fault-degradation timeline section")
	flag.StringVar(&o.out, "o", "", "also write the report to this file")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dsnverify:", err)
		os.Exit(1)
	}
}

func run(o opts, stdout io.Writer) error {
	var report strings.Builder
	var errs []error
	certs := verify.CertifyAll(verify.DefaultOptions())
	if bad := writeMatrix(&report, certs, o.verbose); bad > 0 {
		errs = append(errs, fmt.Errorf("%d combination(s) missed their expectation", bad))
	}
	if o.faults {
		if err := writeFaultTimeline(&report, o.verbose); err != nil {
			errs = append(errs, err)
		}
	}
	// The report is printed and written even when a section failed: the
	// failing certificate is what a reader of the report needs to see.
	fmt.Fprint(stdout, report.String())
	if o.out != "" {
		if err := os.WriteFile(o.out, []byte(report.String()), 0o644); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// writeMatrix renders the certification matrix and returns how many
// combinations missed their expectation.
func writeMatrix(w *strings.Builder, certs []verify.Certificate, verbose bool) int {
	fmt.Fprintf(w, "dsnverify: certification matrix (%d combinations)\n\n", len(certs))
	fmt.Fprintf(w, "%-42s %-4s %-10s %-9s %-7s %s\n", "COMBINATION", "VCS", "STATUS", "CHANNELS", "DEPS", "VERDICT")
	bad := 0
	for i := range certs {
		c := &certs[i]
		verdict := "pass"
		if !c.OK() {
			verdict = "FAIL"
			bad++
		} else if c.ExpectCyclic {
			verdict = "pass (cyclic as proven)"
		}
		fmt.Fprintf(w, "%-42s %-4d %-10s %-9d %-7d %s\n", c.Combo, c.VCs, c.Status, c.Channels, c.Deps, verdict)
		if c.Err != "" {
			fmt.Fprintf(w, "    error: %s\n", c.Err)
		}
		for _, chk := range c.Checks {
			if !chk.OK || verbose {
				mark := "ok"
				if !chk.OK {
					mark = "FAIL"
				}
				fmt.Fprintf(w, "    %-4s %-34s %s\n", mark, chk.Name, chk.Detail)
			}
		}
		if c.Status == verify.StatusCyclic {
			fmt.Fprintf(w, "    witness: %s\n", c.WitnessString())
			if c.Doc != "" {
				fmt.Fprintf(w, "    why: %s\n", c.Doc)
			}
		}
	}
	fmt.Fprintf(w, "\n%d/%d combinations met their expectation\n", len(certs)-bad, len(certs))
	return bad
}

// faultSection is the input of the -faults section: a fail-then-repair
// plan on one fabric and the certifiers replayed over it.
type faultSection struct {
	fabric    string
	g         *graph.Graph
	plan      *netsim.FaultPlan
	timelines []timeline
}

// timeline is one certifier replayed over the plan, event by event.
// When mustPass is set, the certificate must pass after every event;
// otherwise its verdicts are recorded only.
type timeline struct {
	name     string
	certify  func(edgeDead, swDead []bool) verify.Certificate
	mustPass bool
}

// faultTimelines builds the -faults section: the degraded escape
// network, which must stay certified on every fault set, and the DSN
// ring-detour re-sourcing on DSN-64, whose detours may close a ring
// cycle and are recorded only. It is a variable so that tests can
// substitute failing timelines.
var faultTimelines = func() (faultSection, error) {
	d, err := core.New(64, 5)
	if err != nil {
		return faultSection{}, err
	}
	g := d.Graph()
	return faultSection{
		fabric: "dsn-64",
		g:      g,
		plan: netsim.NewFaultPlan(
			netsim.LinkDown(10, 3),
			netsim.LinkDown(20, 17),
			netsim.SwitchDown(30, 40),
			netsim.SwitchUp(40, 40),
			netsim.LinkUp(50, 17),
			netsim.LinkUp(60, 3),
		),
		timelines: []timeline{
			{"updown-escape", func(ed, sd []bool) verify.Certificate {
				return verify.CertifyDegradedUpDown(g, ed, sd, 4)
			}, true},
			{"dsn-ring-detour", func(ed, sd []bool) verify.Certificate {
				return verify.CertifyDegradedDSN(d, ed, sd)
			}, false},
		},
	}, nil
}

// writeFaultTimeline certifies each timeline after every event of the
// fault plan, checks that a must-pass timeline passes at every event
// and that full repair restores the pristine certificates. Every
// timeline is rendered, failures marked; the error names each failure.
func writeFaultTimeline(w *strings.Builder, verbose bool) error {
	fs, err := faultTimelines()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nfault/repair timeline (%d events on %s)\n\n", len(fs.plan.Events), fs.fabric)
	var errs []error
	for _, tl := range fs.timelines {
		entries, err := verify.CertifyFaultTimeline(fs.g, fs.plan, tl.certify)
		if err != nil {
			fmt.Fprintf(w, "%-16s error: %v\n", tl.name, err)
			errs = append(errs, fmt.Errorf("%s: %w", tl.name, err))
			continue
		}
		base := &entries[0].Cert
		for _, en := range entries {
			tag := "baseline"
			if en.Index >= 0 {
				tag = fmt.Sprintf("event %d @%d", en.Index, en.Cycle)
			}
			marks := ""
			if tl.mustPass && !en.Cert.OK() {
				marks = "  [NOT CERTIFIED]"
				errs = append(errs, fmt.Errorf("%s: %s not certified", tl.name, tag))
			}
			if en.Index == len(fs.plan.Events)-1 {
				if verify.SameCertificate(base, &en.Cert) {
					marks += "  [repair restored the pristine certificate]"
				} else {
					marks += "  [REPAIR DID NOT RESTORE THE CERTIFICATE]"
					errs = append(errs, fmt.Errorf("%s: repair did not restore the pristine certificate", tl.name))
				}
			}
			fmt.Fprintf(w, "%-16s %-14s status=%-9s channels=%-4d deps=%-5d%s\n",
				tl.name, tag, en.Cert.Status, en.Cert.Channels, en.Cert.Deps, marks)
			if en.Cert.Err != "" {
				fmt.Fprintf(w, "    error: %s\n", en.Cert.Err)
			}
			if verbose {
				for _, chk := range en.Cert.Checks {
					fmt.Fprintf(w, "    %-34s %s\n", chk.Name, chk.Detail)
				}
			}
		}
	}
	return errors.Join(errs...)
}
