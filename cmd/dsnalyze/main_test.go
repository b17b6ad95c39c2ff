package main

import "testing"

// TestBuildRejectsBadShapes checks that run refuses what the catalog
// refuses (internal/catalog tests every shape): a size the family
// cannot take and an unknown name.
func TestBuildRejectsBadShapes(t *testing.T) {
	for _, topo := range []string{"torus3d", "nonsense"} {
		if err := run(topo, 65, 0, 1, false, false, false, 4, ""); err == nil {
			t.Errorf("%s n=65 accepted", topo)
		}
	}
}

func TestRunPrintsMetrics(t *testing.T) {
	if err := run("dsn", 64, 0, 1, true, true, false, 4, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunDiversity(t *testing.T) {
	if err := run("ring", 16, 0, 1, false, false, true, 2, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunExport(t *testing.T) {
	path := t.TempDir() + "/g.txt"
	if err := run("ring", 16, 0, 1, false, false, false, 4, path); err != nil {
		t.Fatal(err)
	}
}
