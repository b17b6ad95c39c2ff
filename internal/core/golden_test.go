package core

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/route_goldens.txt from the current routing")

const routeGoldensFile = "testdata/route_goldens.txt"

// goldenDSNs lists the instances of the route golden at size n: the
// basic DSN at every x, DSN-E and DSN-V where n is a multiple of p, and
// DSN-D-k for k = 1..3 where the short-link spacing allows it.
func goldenDSNs(n int) []*DSN {
	var ds []*DSN
	for x := 1; x <= CeilLog2(n)-1; x++ {
		if d, err := New(n, x); err == nil {
			ds = append(ds, d)
		}
	}
	if d, err := NewE(n); err == nil {
		ds = append(ds, d)
	}
	if d, err := NewV(n); err == nil {
		ds = append(ds, d)
	}
	for k := 1; k <= 3; k++ {
		if d, err := NewD(n, k); err == nil {
			ds = append(ds, d)
		}
	}
	return ds
}

// TestRouteGoldens pins Figure 2's routes: one fingerprint per instance
// over every ordered pair's hops (From, To, Class, Phase) in (source,
// destination) order, at n = 8..64, 126, 128 and 256. The routes are
// pure functions of the instance, so a change to the routing code must
// leave this file alone; only -update rewrites it, for an intended
// change of the routes.
func TestRouteGoldens(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Figure 2 route fingerprints over every ordered pair; see golden_test.go.\n")
	b.WriteString("# Regenerate only for an intended route change: go test ./internal/core -run TestRouteGoldens -update\n")
	var sizes []int
	for n := 8; n <= 64; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 126, 128, 256)
	var (
		hops []Hop
		buf  [10]byte
		err  error
	)
	for _, n := range sizes {
		for _, d := range goldenDSNs(n) {
			h := sha256.New()
			total := 0
			for s := 0; s < n; s++ {
				for dst := 0; dst < n; dst++ {
					if hops, err = d.AppendRoute(hops[:0], s, dst); err != nil {
						t.Fatal(err)
					}
					total += len(hops)
					for _, hp := range hops {
						binary.LittleEndian.PutUint32(buf[0:], uint32(hp.From))
						binary.LittleEndian.PutUint32(buf[4:], uint32(hp.To))
						buf[8], buf[9] = byte(hp.Class), byte(hp.Phase)
						h.Write(buf[:])
					}
					h.Write([]byte{0xff}) // pair separator
				}
			}
			fmt.Fprintf(&b, "%s hops=%d %x\n", d, total, h.Sum(nil)[:16])
		}
	}
	got := b.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(routeGoldensFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(routeGoldensFile)
	if err != nil {
		t.Fatalf("%v (run go test -run TestRouteGoldens -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("%d lines, want %d", len(gl), len(wl))
		}
	}
}
