package dsnet_test

import (
	"fmt"
	"log"

	"dsnet"
)

// Build a DSN and inspect its small-world properties.
func ExampleNewDSN() {
	d, err := dsnet.NewDSN(64, dsnet.CeilLog2(64)-1)
	if err != nil {
		log.Fatal(err)
	}
	m := d.Graph().AllPairs()
	fmt.Printf("%v: diameter %d, max degree %d\n", d, m.Diameter, d.Graph().MaxDegree())
	// Output: DSN-5-64: diameter 6, max degree 5
}

// Trace the custom three-phase routing algorithm.
func ExampleDSN_Route() {
	d, err := dsnet.NewDSN(64, 5)
	if err != nil {
		log.Fatal(err)
	}
	r, err := d.Route(3, 52)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d hops (bound %d)\n", r.Len(), d.RoutingDiameterBound())
	for _, h := range r.Hops[:2] {
		fmt.Printf("%s: %d -> %d\n", h.Phase, h.From, h.To)
	}
	// Output:
	// 7 hops (bound 22)
	// PRE-WORK: 3 -> 2
	// PRE-WORK: 2 -> 1
}

// Price a topology's cables on the machine-room floorplan.
func ExampleAverageCableLength() {
	d, err := dsnet.NewDSN(1024, 9)
	if err != nil {
		log.Fatal(err)
	}
	avg, err := dsnet.AverageCableLength(d.Graph(), dsnet.DefaultLayoutConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.2f m per link\n", avg)
	// Output: 4.65 m per link
}

// Verify Theorem 3 with the channel dependency graph.
func ExampleCDG() {
	d, err := dsnet.NewDSNE(60)
	if err != nil {
		log.Fatal(err)
	}
	cdg := dsnet.NewCDG(d.Graph(), dsnet.NumClasses)
	for s := 0; s < d.N; s++ {
		for t := 0; t < d.N; t++ {
			r, err := d.Route(s, t)
			if err != nil {
				log.Fatal(err)
			}
			hops := make([]dsnet.ChannelHop, 0, len(r.Hops))
			for _, h := range r.Hops {
				hops = append(hops, dsnet.ChannelHop{From: h.From, To: h.To, Class: uint8(h.Class)})
			}
			cdg.AddRoute(hops)
		}
	}
	fmt.Println("deadlock-free:", cdg.FindCycle() == nil)
	// Output: deadlock-free: true
}

// Run the cycle-accurate simulator at low load.
func ExampleNewSim() {
	d, err := dsnet.NewDSN(64, 5)
	if err != nil {
		log.Fatal(err)
	}
	cfg := dsnet.DefaultSimConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 2000, 4000, 6000
	rt, err := dsnet.NewDuatoUpDown(d.Graph(), cfg.VCs)
	if err != nil {
		log.Fatal(err)
	}
	sim, err := dsnet.NewSim(cfg, d.Graph(), rt, dsnet.NewUniform(256), 0.02)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("saturated:", res.Saturated)
	// Output: saturated: false
}
