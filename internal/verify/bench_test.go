package verify_test

import (
	"testing"

	"dsnet/internal/chaos"
	"dsnet/internal/core"
	"dsnet/internal/layout"
	"dsnet/internal/multipath"
	"dsnet/internal/netsim"
	"dsnet/internal/verify"
)

// Sinks keep the compiler from discarding the measured calls.
var (
	timelineSink []verify.TimelineEntry
	matrixSink   []verify.Certificate
)

// BenchmarkCertify times the certification layer on the chaos target a
// chaos-resilience cell certifies: DSN-V with 36 switches and its
// seed-1 burst and rolling-cabinet plans over the 2000..10000-cycle
// fault window. Each timeline certificate re-certifies after every
// event, as the cell does: the DSN custom router's degraded walk, the
// k=4 multipath escape at 4 VCs, and the recovery escape.
// "dsn-custom" walks the DSN custom router (CertifyDegradedDSN). "all"
// is the standard dsnverify matrix.
func BenchmarkCertify(b *testing.B) {
	const n, vcs = 36, 4
	d, err := core.NewV(n)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Graph()
	l, err := layout.New(n, layout.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	tab, err := multipath.BuildTable(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	timeline := func(b *testing.B, plan *netsim.FaultPlan, certify func(edgeDead, swDead []bool) verify.Certificate) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			entries, err := verify.CertifyFaultTimeline(g, plan, certify)
			if err != nil {
				b.Fatal(err)
			}
			timelineSink = entries
		}
	}
	for _, kind := range []chaos.Kind{chaos.Burst, chaos.RollingCabinets} {
		plan, err := chaos.Generate(g, l, kind, chaos.Window{Start: 2000, End: 10000}, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String()+"/dsn-custom", func(b *testing.B) {
			timeline(b, plan, func(edgeDead, swDead []bool) verify.Certificate {
				return verify.CertifyDegradedDSN(d, edgeDead, swDead)
			})
		})
		b.Run(kind.String()+"/multipath-k4", func(b *testing.B) {
			timeline(b, plan, func(edgeDead, swDead []bool) verify.Certificate {
				return verify.CertifyDegradedMultipath(g, tab, edgeDead, swDead, vcs)
			})
		})
		b.Run(kind.String()+"/recovery-escape", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				entries, err := verify.CertifyRecoveryTimeline(g, plan, vcs)
				if err != nil {
					b.Fatal(err)
				}
				timelineSink = entries
			}
		})
	}
	b.Run("all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matrixSink = verify.CertifyAll(verify.DefaultOptions())
		}
	})
}
