package verify

import (
	"testing"

	"dsnet/internal/core"
	"dsnet/internal/netsim"
	"dsnet/internal/routing"
	"dsnet/internal/topology"
)

// FuzzUpDownTotality builds up*/down* tables over random small DLN
// topologies — optionally fault-degraded by a random edge-kill mask —
// and asserts the verify invariants never fire: totality holds on the
// surviving graph, the resulting CDG certifies acyclic at every VC
// budget the simulator uses, and the walk matches its per-pair oracle.
func FuzzUpDownTotality(f *testing.F) {
	f.Add(uint8(16), uint8(2), uint8(2), uint64(7), uint64(0))
	f.Add(uint8(24), uint8(1), uint8(3), uint64(1), uint64(0x55))
	f.Add(uint8(40), uint8(3), uint8(1), uint64(42), uint64(0xf0f0f0f0))
	f.Fuzz(func(t *testing.T, n, x, y uint8, seed, killMask uint64) {
		g, err := topology.DLNRandom(int(n), int(x), int(y), seed)
		if err != nil {
			t.Skip() // constructor rejected the shape; nothing to verify
		}
		// Degrade: kill edge e when bit e%64 of the mask is set, keeping
		// at least one edge so the build has something to rank.
		edgeDead := make([]bool, g.M())
		for e := range edgeDead {
			edgeDead[e] = killMask>>(e%64)&1 == 1
		}
		alive, ud := routing.Surviving(g, edgeDead, nil)
		if alive.M() == 0 {
			t.Skip()
		}
		if err := UpDownTotality(alive, ud); err != nil {
			t.Fatalf("totality fired: %v", err)
		}
		if err := sameWalk(alive, ud); err != nil {
			t.Fatalf("walk differs from the per-pair walk (mask %x): %v", killMask, err)
		}
		for _, vcs := range []int{1, 4} {
			cdg, err := UpDownChannels(alive, ud, vcs)
			if err != nil {
				t.Fatalf("channel enumeration failed: %v", err)
			}
			if cycle := cdg.FindCycle(); cycle != nil {
				t.Fatalf("up*/down* CDG cyclic at %d VCs on degraded graph (mask %x): %v", vcs, killMask, cycle)
			}
		}
	})
}

// FuzzDSNRouteInvariants builds random small DSN instances across all
// variants and asserts the paper-bound invariants and routing totality
// never fire, and that the deadlock-free variants' VC-mapped CDG, walked
// through the simulator's netsim.DSNSourceRouted, stays acyclic.
func FuzzDSNRouteInvariants(f *testing.F) {
	f.Add(uint8(16), uint8(2), uint8(0))
	f.Add(uint8(64), uint8(5), uint8(0))
	f.Add(uint8(48), uint8(2), uint8(1)) // DSN-E, n multiple of p=6
	f.Add(uint8(48), uint8(1), uint8(2)) // DSN-V
	f.Add(uint8(64), uint8(2), uint8(3)) // DSN-D-2
	f.Fuzz(func(t *testing.T, n, param, variant uint8) {
		var (
			d   *core.DSN
			err error
		)
		switch variant % 4 {
		case 0:
			d, err = core.New(int(n), int(param))
		case 1:
			d, err = core.NewE(int(n))
		case 2:
			d, err = core.NewV(int(n))
		case 3:
			d, err = core.NewD(int(n), int(param))
		}
		if err != nil {
			t.Skip() // constructor rejected the shape
		}
		if d.N > 160 {
			t.Skip() // keep the all-pairs walks cheap
		}
		route := d.AppendRoute
		if d.Variant == core.VariantD {
			route = appendShortAware(d)
		}
		w := walkDSN(d, route, false)
		if w.err != nil {
			t.Fatalf("routing failed on %s: %v", d, w.err)
		}
		for _, chk := range DSNInvariants(d, w.maxLen) {
			if !chk.OK {
				t.Fatalf("%s fired on %s: %s", chk.Name, d, chk.Detail)
			}
		}
		if w.totality != nil {
			t.Fatalf("totality fired on %s: %v", d, w.totality)
		}
		if d.Variant == core.VariantE || d.Variant == core.VariantV {
			rt, err := netsim.NewDSNSourceRouted(d)
			if err != nil {
				t.Fatalf("source-routed router build failed on %s: %v", d, err)
			}
			if cycle := walkRouter(rt, d.Graph(), 3, nil, nil).cdg.FindCycle(); cycle != nil {
				t.Fatalf("VC-mapped CDG cyclic on %s: %v", d, cycle)
			}
		}
	})
}
