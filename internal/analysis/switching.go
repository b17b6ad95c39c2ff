package analysis

import (
	"fmt"
	"io"

	"dsnet/internal/graph"
	"dsnet/internal/netsim"
	"dsnet/internal/traffic"
)

// SwitchingPoint compares virtual cut-through and wormhole switching on
// one topology at one offered load.
type SwitchingPoint struct {
	Rate     float64
	VCT      netsim.Result
	Wormhole netsim.Result
}

// SwitchingComparison runs the Section V.A ablation: the same topology,
// routing and traffic under VCT (full-packet buffers) and wormhole
// switching (wormBuf flits per VC), across the given offered loads.
func SwitchingComparison(cfg netsim.Config, g *graph.Graph, patternName string, rates []float64, wormBuf int) ([]SwitchingPoint, error) {
	if wormBuf < 1 {
		return nil, fmt.Errorf("analysis: wormhole buffer %d < 1", wormBuf)
	}
	vctCfg := cfg
	vctCfg.BufFlitsPerVC = cfg.PacketFlits
	wormCfg := cfg
	wormCfg.BufFlitsPerVC = wormBuf
	var out []SwitchingPoint
	for _, rate := range rates {
		pt := SwitchingPoint{Rate: rate}
		for _, e := range []struct {
			cfg    netsim.Config
			newSim func(netsim.Config, *graph.Graph, netsim.Router, traffic.Pattern, float64) (*netsim.Sim, error)
			res    *netsim.Result
		}{{vctCfg, netsim.NewSim, &pt.VCT}, {wormCfg, netsim.NewWormSim, &pt.Wormhole}} {
			// Built per run: routers carry fault state and some patterns
			// (all-to-all) carry per-simulation state.
			rt, err := netsim.NewDuatoUpDown(g, cfg.VCs)
			if err != nil {
				return nil, err
			}
			pat, err := PatternFor(patternName, g.N(), cfg.HostsPerSwitch)
			if err != nil {
				return nil, err
			}
			sim, err := e.newSim(e.cfg, g, rt, pat, rate)
			if err != nil {
				return nil, err
			}
			*e.res, _ = sim.Run() // a watchdog error still yields a result
		}
		out = append(out, pt)
	}
	return out, nil
}

// WriteSwitchingTable renders the comparison.
func WriteSwitchingTable(w io.Writer, pts []SwitchingPoint) {
	fmt.Fprintf(w, "%10s %12s %12s %12s %12s\n", "rate", "vct_acc", "vct_lat_ns", "worm_acc", "worm_lat_ns")
	for _, p := range pts {
		fmt.Fprintf(w, "%10.3f %12.2f %12.1f %12.2f %12.1f\n",
			p.Rate, p.VCT.AcceptedGbps, p.VCT.AvgLatencyNS, p.Wormhole.AcceptedGbps, p.Wormhole.AvgLatencyNS)
	}
}
