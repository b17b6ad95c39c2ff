package analysis

import (
	"context"
	"fmt"
	"io"
	"sort"

	"dsnet/internal/chaos"
	"dsnet/internal/harness"
)

// ChaosRow summarizes one chaos campaign: one target topology under one
// simulator engine, with every monitor verdict aggregated. Violations
// on the healthy targets are regressions; the deliberately broken
// dsn-basic-unsafe target is expected to light up — that contrast is
// the point of the table.
type ChaosRow struct {
	Target     string
	Engine     string
	Scenarios  int
	Clean      int
	Violations map[string]int // monitor name -> count
	FirstBad   string         // first failing scenario, for replay
}

// ChaosSweep runs a campaign of count scenarios (plus the zero-fault
// golden baseline) against each named target (chaos.BuildTarget names)
// through the given simulator engine, as one chaos.Grid: the golden
// cells first, then every scenario cell. Campaign generation and every
// simulation are seeded, so a row is reproducible from (target, n,
// seed, count, wormhole) alone.
func ChaosSweep(ctx context.Context, r *harness.Runner, targets []string, n int, seed uint64, count int, wormhole bool) ([]ChaosRow, error) {
	setups := make([]chaos.Setup, len(targets))
	for i, name := range targets {
		setups[i] = chaos.Setup{Target: name, N: n, Wormhole: wormhole, Seed: seed}
	}
	g, err := chaos.NewGrid(setups, count)
	if err != nil {
		return nil, err
	}
	verdicts, err := g.Run(ctx, r)
	if err != nil {
		return nil, err
	}
	rows := make([]ChaosRow, 0, len(verdicts))
	for i, vs := range verdicts {
		row := ChaosRow{
			Target:     targets[i],
			Engine:     g.Engines[i].Opt.EngineName(),
			Scenarios:  len(vs),
			Violations: map[string]int{},
		}
		for _, v := range vs {
			if v.OK() {
				row.Clean++
				continue
			}
			row.Violations[v.Monitor]++
			if row.FirstBad == "" {
				row.FirstBad = v.Scenario.String()
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteChaosTable renders the campaign summary.
func WriteChaosTable(w io.Writer, rows []ChaosRow) {
	fmt.Fprintf(w, "%-18s %-9s %9s %6s %-28s %s\n", "target", "engine", "scenarios", "clean", "violations", "first_failing")
	for _, r := range rows {
		viol := "-"
		if len(r.Violations) > 0 {
			mons := make([]string, 0, len(r.Violations))
			for mon := range r.Violations { // dsnlint:ok maprange keys sorted below
				mons = append(mons, mon)
			}
			sort.Strings(mons)
			viol = ""
			for _, mon := range mons {
				if viol != "" {
					viol += " "
				}
				viol += fmt.Sprintf("%s:%d", mon, r.Violations[mon])
			}
		}
		first := r.FirstBad
		if first == "" {
			first = "-"
		}
		fmt.Fprintf(w, "%-18s %-9s %9d %6d %-28s %s\n", r.Target, r.Engine, r.Scenarios, r.Clean, viol, first)
	}
}
