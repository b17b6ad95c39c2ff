// Deadlock check: verify Theorem 3 empirically. The basic DSN routing
// shares ring channels between its phases and its channel dependency
// graph (CDG) contains a cycle; DSN-E's dedicated Up and Extra channels
// (used with destination scoping in the FINISH phase) break every cycle,
// so by Dally & Seitz's theorem the extended routing is deadlock-free.
package main

import (
	"fmt"
	"log"

	"dsnet"
)

func main() {
	const n = 126 // multiple of p = 7, as DSN-E requires

	fmt.Println("building CDGs from all-pairs custom routes...")

	basic, err := dsnet.NewDSN(n, dsnet.CeilLog2(n)-1)
	if err != nil {
		log.Fatal(err)
	}
	report("basic DSN ", cdgOf(basic))

	dsnE, err := dsnet.NewDSNE(n)
	if err != nil {
		log.Fatal(err)
	}
	report("DSN-E     ", cdgOf(dsnE))

	dsnV, err := dsnet.NewDSNV(n)
	if err != nil {
		log.Fatal(err)
	}
	report("DSN-V     ", cdgOf(dsnV))
}

func cdgOf(d *dsnet.DSN) *dsnet.CDG {
	cdg := dsnet.NewCDG(d.Graph(), dsnet.NumClasses)
	var hops []dsnet.ChannelHop
	for s := 0; s < d.N; s++ {
		for t := 0; t < d.N; t++ {
			r, err := d.Route(s, t)
			if err != nil {
				log.Fatal(err)
			}
			hops = hops[:0]
			for _, h := range r.Hops {
				hops = append(hops, dsnet.ChannelHop{From: h.From, To: h.To, Class: uint8(h.Class)})
			}
			cdg.AddRoute(hops)
		}
	}
	return cdg
}

func report(name string, cdg *dsnet.CDG) {
	cyc := cdg.FindCycle()
	verdict := "ACYCLIC -> deadlock-free (Theorem 3)"
	if cyc != nil {
		verdict = fmt.Sprintf("CYCLE of %d channels -> can deadlock", len(cyc)-1)
	}
	fmt.Printf("%s %5d channels, %6d dependencies: %s\n",
		name, cdg.Channels(), cdg.Dependencies(), verdict)
}
