package main

import (
	"context"
	"fmt"
	"time"

	"dsnet"
)

// scaling measures serial-vs-parallel wall time of the harness-backed
// fault sweep at growing network sizes and returns the curve for
// embedding in the benchmark report. The fault sweep is pure graph
// analytics (no cycle simulation), so it is the one sweep that stays
// tractable at 1024 switches; it is what the EXPERIMENTS.md scaling
// baseline tabulates.
func scaling(jobs int, seed uint64) ([]dsnet.BenchScalingRow, error) {
	var rows []dsnet.BenchScalingRow
	fmt.Printf("%-8s %-6s %12s %12s %8s\n", "switches", "cells", "serial_ms", "parallel_ms", "speedup")
	for _, n := range []int{64, 256, 1024} {
		fracs := []float64{0.02, 0.05, 0.10}
		trials := 10

		serial := time.Now()
		ref, err := dsnet.FaultSweep(context.Background(), &dsnet.SweepRunner{Jobs: 1}, n, fracs, trials, seed)
		if err != nil {
			return nil, err
		}
		serialMS := float64(time.Since(serial).Microseconds()) / 1e3

		par := time.Now()
		got, err := dsnet.FaultSweep(context.Background(), &dsnet.SweepRunner{Jobs: jobs}, n, fracs, trials, seed)
		if err != nil {
			return nil, err
		}
		parMS := float64(time.Since(par).Microseconds()) / 1e3

		if len(ref) != len(got) {
			return nil, fmt.Errorf("n=%d: parallel row count differs", n)
		}
		cells := len(fracs)*len(dsnet.ComparisonNames)*trials + len(dsnet.ComparisonNames)
		row := dsnet.BenchScalingRow{
			Switches: n, Cells: cells,
			SerialMS: serialMS, ParallelMS: parMS, Speedup: serialMS / parMS,
		}
		rows = append(rows, row)
		fmt.Printf("%-8d %-6d %12.0f %12.0f %7.2fx\n", row.Switches, row.Cells, row.SerialMS, row.ParallelMS, row.Speedup)
	}
	return rows, nil
}
