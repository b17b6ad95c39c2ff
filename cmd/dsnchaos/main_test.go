package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current command")

const outputGolden = "testdata/golden.txt"

const detourRepro = "../../internal/chaos/testdata/repro/dsn-v-custom-wormhole-detour-deadlock.repro"

// goldenCases cover both engines, multipath arming, drain recovery, a
// shrunk violation (exit 2) and the plain and recovered replays, one of
// them with its own stall threshold.
var goldenCases = [][]string{
	{"-topo", "torus", "-n", "16", "-campaigns", "3", "-seed", "3"},
	{"-topo", "torus", "-n", "16", "-campaigns", "3", "-seed", "3", "-switching", "wormhole", "-multipath"},
	{"-topo", "torus", "-n", "16", "-campaigns", "3", "-seed", "3", "-recover", "-drain"},
	{"-topo", "dsn-basic-unsafe", "-n", "36", "-campaigns", "2", "-shrink"},
	{"-replay", detourRepro},
	{"-replay", detourRepro, "-recover", "-multipath"},
	{"-replay", detourRepro, "-recover", "-stallthreshold", "256"},
}

// TestOutputGolden pins stdout and the exit code of every golden case
// byte for byte, at one and at two workers with no cache. Only -update
// rewrites the golden, for an intended change of the output.
func TestOutputGolden(t *testing.T) {
	if testing.Short() || raceDetectorEnabled {
		t.Skip("full chaos campaigns in -short or -race mode")
	}
	var all strings.Builder
	for _, args := range goldenCases {
		var first string
		for _, jobs := range []string{"1", "2"} {
			var out strings.Builder
			code := cli(append([]string{"-j", jobs, "-nocache"}, args...), &out, io.Discard)
			got := fmt.Sprintf("$ dsnchaos %s\n%sexit %d\n\n", strings.Join(args, " "), out.String(), code)
			if first == "" {
				first = got
				all.WriteString(got)
			} else if got != first {
				t.Errorf("-j %s output differs from -j 1:\n got: %s\nwant: %s", jobs, got, first)
			}
		}
	}
	if *update {
		if err := os.WriteFile(outputGolden, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(outputGolden)
	if err != nil {
		t.Fatalf("%v (run go test -run TestOutputGolden -update to create it)", err)
	}
	gl, wl := strings.Split(all.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", outputGolden, i+1, g, w)
		}
	}
}
