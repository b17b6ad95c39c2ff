// Latency study: drive the cycle-accurate simulator on the paper's
// 64-switch configuration and reproduce the Figure 10 observation that
// DSN tracks the RANDOM topology's latency while beating the torus.
package main

import (
	"context"
	"fmt"
	"log"

	"dsnet"
)

func main() {
	cfg := dsnet.DefaultSimConfig()
	// Short windows keep this example fast; cmd/dsnfigs runs the full
	// schedule.
	cfg.WarmupCycles = 5000
	cfg.MeasureCycles = 10000
	cfg.DrainCycles = 10000

	fmt.Println("64 switches x 4 hosts, uniform traffic, adaptive routing")
	fmt.Println("with up*/down* escape, 4 VCs, 33-flit packets, 96 Gbps links")
	fmt.Println()

	rates := []float64{0.02, 0.06, 0.10}
	curves, err := dsnet.Fig10Curves(context.Background(), nil, cfg, "uniform", rates, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s", "Gbps/host:")
	for _, r := range rates {
		fmt.Printf(" %9.1f", r*cfg.LinkGbps)
	}
	fmt.Println("   (offered)")
	lat := map[string][]float64{}
	for _, c := range curves {
		fmt.Printf("%-10s", c.Topology)
		for _, p := range c.Points {
			fmt.Printf(" %7.0fns", p.AvgLatencyNS)
			lat[c.Topology] = append(lat[c.Topology], p.AvgLatencyNS)
		}
		fmt.Println()
	}
	imp := (1 - lat["DSN"][0]/lat["Torus"][0]) * 100
	fmt.Printf("\nDSN cuts low-load latency by %.0f%% versus the torus", imp)
	fmt.Printf(" (the paper reports 15%% under uniform traffic)\n")
	gap := (lat["DSN"][0] - lat["RANDOM"][0]) / lat["RANDOM"][0] * 100
	fmt.Printf("DSN sits within %.0f%% of the RANDOM topology's latency\n", gap)
}
