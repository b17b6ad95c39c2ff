package chaos

import (
	"os"
	"path/filepath"
	"testing"
)

// TestReproCorpusRecovered replays every checked-in reproducer with
// runtime deadlock recovery armed, on both engines: scenarios that
// wedge or starve the fabric without recovery must now complete with
// zero monitor violations and zero unresolved deadlocks, and the
// reproducer's own engine must actually exercise the abort path
// (DeadlocksRecovered >= 1). This is the test-side half of the CI
// chaos-recovery smoke.
func TestReproCorpusRecovered(t *testing.T) {
	if testing.Short() || raceDetectorEnabled {
		t.Skip("recovered replay runs full simulations; skipped in -short or -race mode")
	}
	files, err := filepath.Glob(filepath.Join("testdata", "repro", "*.repro"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no reproducers in testdata/repro")
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			r, err := ParseRepro(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, engine := range []string{"vct", "wormhole"} {
				for _, drain := range []bool{false, true} {
					v, err := r.RunRecovered(engine, drain, nil)
					if err != nil {
						t.Fatalf("%s drain=%v: %v", engine, drain, err)
					}
					if !v.OK() {
						t.Fatalf("%s drain=%v: recovery-armed replay still violates %s: %s",
							engine, drain, v.Monitor, v.Detail)
					}
					if engine == r.Engine && !drain && v.Result.DeadlocksRecovered < 1 {
						t.Fatalf("%s: reproducer ran clean but never exercised recovery (detected %d, recovered %d)",
							engine, v.Result.DeadlocksDetected, v.Result.DeadlocksRecovered)
					}
				}
			}
		})
	}
}
