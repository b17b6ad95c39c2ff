package search

import (
	"context"
	"encoding/json"
	"testing"

	"dsnet/internal/catalog"
	"dsnet/internal/harness"
)

// asplConfig is a fast search configuration: the ASPL objective skips
// simulation, so whole searches run in milliseconds.
func asplConfig(driver string, budget int) Config {
	cfg := DefaultConfig(32, 6)
	cfg.Driver = driver
	cfg.Budget = budget
	cfg.Eval.Objective = ObjectiveASPL
	return cfg
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestRunDeterministicAcrossWorkers is the identity gate: the same
// seed and budget must reproduce a bit-identical Result serially, at
// -j 4, and when replayed from a warm cache.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	for _, driver := range Drivers {
		t.Run(driver, func(t *testing.T) {
			cfg := asplConfig(driver, 30)
			serial, sst, err := Run(context.Background(), harness.Serial(), cfg)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			if sst.Evaluated != cfg.Budget || sst.Executed != cfg.Budget || sst.Cached != 0 {
				t.Fatalf("serial stats off: %+v", sst)
			}
			par, _, err := Run(context.Background(), &harness.Runner{Jobs: 4}, cfg)
			if err != nil {
				t.Fatalf("parallel run: %v", err)
			}
			if mustJSON(t, par) != mustJSON(t, serial) {
				t.Fatal("parallel result differs from serial")
			}

			cached, err := harness.NewRunner(4, t.TempDir(), false)
			if err != nil {
				t.Fatalf("NewRunner: %v", err)
			}
			first, fst, err := Run(context.Background(), cached, cfg)
			if err != nil {
				t.Fatalf("cold cached run: %v", err)
			}
			replay, rst, err := Run(context.Background(), cached, cfg)
			if err != nil {
				t.Fatalf("warm cached run: %v", err)
			}
			if fst.Cached != 0 || rst.Cached != cfg.Budget || rst.Executed != 0 {
				t.Fatalf("cache stats off: cold %+v, warm %+v", fst, rst)
			}
			if mustJSON(t, first) != mustJSON(t, serial) || mustJSON(t, replay) != mustJSON(t, serial) {
				t.Fatal("cached results differ from serial")
			}
		})
	}
}

// TestRunResultInvariants checks the structural promises of a finished
// search: exact budget accounting, certified-only archive, seeds
// recorded, and a front that collectively beats or matches its seeds.
func TestRunResultInvariants(t *testing.T) {
	cfg := asplConfig(DriverEvolve, 40)
	res, _, err := Run(context.Background(), harness.Serial(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Schema != ResultSchema || res.Driver != DriverEvolve || res.Objective != ObjectiveASPL {
		t.Fatalf("header wrong: %+v", res)
	}
	if res.Evaluated != cfg.Budget {
		t.Fatalf("evaluated %d, want %d", res.Evaluated, cfg.Budget)
	}
	if res.Unique > res.Evaluated || res.Unique == 0 {
		t.Fatalf("unique %d out of range", res.Unique)
	}
	if len(res.Seeds) == 0 {
		t.Fatal("no seeds recorded")
	}
	if len(res.Front) == 0 || res.Best == nil {
		t.Fatal("empty front or missing best")
	}
	for i, c := range res.Front {
		if !c.Eval.Certified || c.Eval.Rejected != "" {
			t.Fatalf("front[%d] not certified: %+v", i, c.Eval)
		}
		if c.Eval.CertChannels == 0 || c.Eval.CertDetail == "" {
			t.Fatalf("front[%d] carries no certificate detail", i)
		}
		if err := c.Genome.Validate(cfg.Eval.Constraints.MaxDegree); err != nil {
			t.Fatalf("front[%d] genome invalid: %v", i, err)
		}
		if i > 0 {
			p := res.Front[i-1].Eval
			if c.Eval.Quality < p.Quality {
				t.Fatalf("front not sorted by quality at %d", i)
			}
		}
		for j, o := range res.Front {
			if i != j && Dominates(o.Eval, c.Eval) {
				t.Fatalf("front[%d] dominated by front[%d]", i, j)
			}
		}
	}
	// The front never loses to a seed: every certified seed is dominated
	// by or present on the front, or incomparable to all of it — but at
	// minimum the archive saw every seed, so no seed strictly dominates
	// the whole front.
	for _, s := range res.Seeds {
		if s.Eval.Rejected != "" {
			continue
		}
		dominatesAll := true
		for _, f := range res.Front {
			if !Dominates(s.Eval, f.Eval) {
				dominatesAll = false
				break
			}
		}
		if dominatesAll {
			t.Fatalf("seed %s strictly dominates the final front", s.Origin)
		}
	}
}

// TestRunBudgetSmallerThanPool truncates the seed round itself.
func TestRunBudgetSmallerThanPool(t *testing.T) {
	cfg := asplConfig(DriverAnneal, 4)
	res, st, err := Run(context.Background(), harness.Serial(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Evaluated != 4 || res.Evaluated != 4 || len(res.Seeds) != 4 {
		t.Fatalf("budget truncation wrong: stats %+v, seeds %d", st, len(res.Seeds))
	}
}

// TestRunCancellation aborts between batches.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Run(ctx, harness.Serial(), asplConfig(DriverEvolve, 20)); err == nil {
		t.Fatal("cancelled run returned nil error")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Driver = "gradient" },
		func(c *Config) { c.Budget = 0 },
		func(c *Config) { c.Mu = 0 },
		func(c *Config) { c.Lambda = 0 },
		func(c *Config) { c.CrossoverP = 1.5 },
		func(c *Config) { c.InitTemp = 0 },
		func(c *Config) { c.Cool = 1.2 },
		func(c *Config) { c.Eval.Objective = "latency" },
		func(c *Config) { c.Eval.Constraints.N = 4 },
		func(c *Config) { c.Eval.Constraints.MaxDegree = 2 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig(32, 6)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
	if err := DefaultConfig(32, 6).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

// TestEvaluateRejections drives each counted rejection class through
// Evaluate and checks rejected candidates are never certified.
func TestEvaluateRejections(t *testing.T) {
	cfg := DefaultEvalConfig(Constraints{N: 16, MaxDegree: 4})
	cfg.Objective = ObjectiveASPL
	cases := []struct {
		name   string
		g      Genome
		reason string
	}{
		{"range", NewGenome(16, []Gene{{U: 3, V: 99}}), RejectInvalid},
		{"ring-dup", NewGenome(16, []Gene{{U: 3, V: 4}}), RejectInvalid},
		{"degree", NewGenome(16, []Gene{{U: 0, V: 4}, {U: 0, V: 6}, {U: 0, V: 8}}), RejectDegree},
	}
	for _, tc := range cases {
		ev, err := Evaluate(tc.g, cfg)
		if err != nil {
			t.Fatalf("%s: Evaluate error: %v", tc.name, err)
		}
		if ev.Rejected != tc.reason {
			t.Errorf("%s: rejected = %q, want %q", tc.name, ev.Rejected, tc.reason)
		}
		if ev.Certified {
			t.Errorf("%s: rejected candidate marked certified", tc.name)
		}
	}
	// A clean DSN genome evaluates fully.
	ev, err := Evaluate(dsnGenome(t, 16, 2), cfg)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if ev.Rejected != "" || !ev.Certified || ev.ASPL <= 1 || ev.Cost <= 0 || ev.CertChannels == 0 {
		t.Fatalf("clean evaluation wrong: %+v", ev)
	}
	if ev.Quality != ev.ASPL {
		t.Fatalf("aspl objective quality %g != aspl %g", ev.Quality, ev.ASPL)
	}
}

// TestEvaluateCombinedObjective exercises the simulation path once, on
// a small instance with shortened windows.
func TestEvaluateCombinedObjective(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation evaluation in -short mode")
	}
	cfg := DefaultEvalConfig(Constraints{N: 16, MaxDegree: 6}).Quick()
	g := dsnGenome(t, 16, 2)
	ev, err := Evaluate(g, cfg)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if ev.Rejected != "" || !ev.Certified {
		t.Fatalf("combined evaluation rejected: %+v", ev)
	}
	if ev.SaturationGbps <= 0 || ev.KneeRate <= 0 {
		t.Fatalf("no saturation estimate: %+v", ev)
	}
	if ev.Quality <= 0 || ev.Quality != ev.ASPL/ev.SaturationGbps {
		t.Fatalf("combined quality wrong: %+v", ev)
	}
	// The evaluation replays bit-identically.
	again, err := Evaluate(g, cfg)
	if err != nil {
		t.Fatalf("Evaluate again: %v", err)
	}
	if mustJSON(t, again) != mustJSON(t, ev) {
		t.Fatal("simulation evaluation not deterministic")
	}
}

// dsnGenome is the genome of the basic DSN-x-n.
func dsnGenome(t *testing.T, n, x int) Genome {
	t.Helper()
	f, err := catalog.Build(catalog.Spec{Name: "dsn", N: n, X: x})
	if err != nil {
		t.Fatal(err)
	}
	return FromGraph(f.Graph)
}
