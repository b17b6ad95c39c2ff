package netsim

import (
	"reflect"
	"testing"

	"dsnet/internal/core"
	"dsnet/internal/recovery"
	"dsnet/internal/traffic"
)

// reproCfg mirrors the chaos corpus replay settings (DefaultOptions +
// the repro's watchdog, with the drain stretched to 8x the watchdog).
func reproCfg(seed uint64) Config {
	cfg := Default()
	cfg.Seed = seed
	cfg.WarmupCycles = 5000
	cfg.MeasureCycles = 10000
	cfg.WatchdogCycles = 60000
	cfg.DrainCycles = 8 * cfg.WatchdogCycles
	return cfg
}

// TestWormholeDetourDeadlockRecovered promotes the checked-in
// dsn-v-custom-wormhole-detour-deadlock reproducer (the EXPERIMENTS.md
// chaos finding: fault detours re-close the CDG the virtual-layer proof
// assumes acyclic) from a pinned failure to a recovered run: with
// runtime deadlock recovery armed, the identical scenario completes
// cleanly and every confirmed deadlock is resolved.
func TestWormholeDetourDeadlockRecovered(t *testing.T) {
	if testing.Short() || raceDetectorEnabled {
		t.Skip("full deadlock-formation simulation in -short or -race mode")
	}
	d, err := core.NewV(36)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewDSNSourceRouted(d)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	cfg := reproCfg(1)
	pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
	s, err := NewWormSim(cfg, g, rt, pat, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetFaultPlan(NewFaultPlan(LinkDown(7623, 26))); err != nil {
		t.Fatal(err)
	}
	if err := s.SetMonitors(Monitors{
		Conservation:     true,
		MaxHOLWaitCycles: 16384,
		HopTTL:           int32(d.RoutingDiameterBound()),
	}); err != nil {
		t.Fatal(err)
	}
	// The chaos replay tuning: act well before the 16384-cycle hol-wait
	// bound. The wormhole confirmation pass is structural (wormWedged),
	// so aggressive thresholds cannot abort merely-congested worms.
	rc := recovery.Default()
	rc.StallThresholdCycles = 1024
	rc.ConfirmCycles = 256
	if err := s.SetRecovery(rc); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("recovery-armed replay tripped a monitor: %v", err)
	}
	if res.DeadlocksRecovered < 1 {
		t.Fatalf("expected >= 1 recovered deadlock, got detected %d recovered %d lost %d",
			res.DeadlocksDetected, res.DeadlocksRecovered, res.DeadlocksLost)
	}
	if res.DeadlocksDetected != res.DeadlocksRecovered+res.DeadlocksReleased+res.DeadlocksLost {
		t.Fatalf("unresolved deadlocks: detected %d != recovered %d + released %d + lost %d",
			res.DeadlocksDetected, res.DeadlocksRecovered, res.DeadlocksReleased, res.DeadlocksLost)
	}
	if res.AbortedFlits < 1 {
		t.Fatalf("recovered %d deadlocks but AbortedFlits = %d", res.DeadlocksRecovered, res.AbortedFlits)
	}
}

// TestVCTDeadlockRecovered runs the deliberately broken basic-variant
// custom routing (provably cyclic CDG) hot on the VCT engine with an
// aggressive detector: recovery must confirm at least one deadlock and
// resolve every one it confirms, and the run must end clean.
func TestVCTDeadlockRecovered(t *testing.T) {
	if testing.Short() || raceDetectorEnabled {
		t.Skip("full deadlock-formation simulation in -short or -race mode")
	}
	d, err := core.New(36, core.CeilLog2(36)-1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewDSNSourceRoutedUnsafe(d)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	cfg := reproCfg(1)
	cfg.DrainCycles = 60000 // the wedge forms in the measure window already
	pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
	s, err := NewSim(cfg, g, rt, pat, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetMonitors(Monitors{Conservation: true, MaxHOLWaitCycles: 16384}); err != nil {
		t.Fatal(err)
	}
	rc := recovery.Default()
	rc.StallThresholdCycles = 1024
	rc.ConfirmCycles = 256
	if err := s.SetRecovery(rc); err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("recovery-armed run tripped a monitor: %v", err)
	}
	if res.DeadlocksDetected < 1 {
		t.Fatal("expected the unsafe configuration to deadlock at rate 0.30, detector never confirmed one")
	}
	if res.DeadlocksDetected != res.DeadlocksRecovered+res.DeadlocksReleased+res.DeadlocksLost {
		t.Fatalf("unresolved deadlocks: detected %d != recovered %d + released %d + lost %d",
			res.DeadlocksDetected, res.DeadlocksRecovered, res.DeadlocksReleased, res.DeadlocksLost)
	}
}

// TestRecoveryZeroFaultBitIdentity is the inertness guarantee: arming
// recovery on a zero-fault run must leave the Result byte-identical on
// both engines — detection is passive until a deadlock is confirmed, so
// a clean fabric never observes it.
func TestRecoveryZeroFaultBitIdentity(t *testing.T) {
	d, err := core.NewV(36)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	cfg := Default()
	cfg.Seed = 7
	cfg.WarmupCycles = 2000
	cfg.MeasureCycles = 4000
	cfg.DrainCycles = 20000
	pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
	for _, e := range engines {
		run := func(armed bool) Result {
			rt, err := NewDSNSourceRouted(d)
			if err != nil {
				t.Fatal(err)
			}
			s, err := e.new(cfg, g, rt, pat, 0.02)
			if err != nil {
				t.Fatal(err)
			}
			if armed {
				if err := s.SetRecovery(recovery.Default()); err != nil {
					t.Fatal(err)
				}
			}
			res, err := s.Run()
			if err != nil {
				t.Fatalf("%s zero-fault run failed: %v", e.name, err)
			}
			return res
		}
		plain, armed := run(false), run(true)
		if armed.DeadlocksDetected != 0 || armed.DeadlocksRecovered != 0 || armed.AbortedFlits != 0 {
			t.Fatalf("%s: recovery fired on a zero-fault run: %+v", e.name, armed)
		}
		// The flit books are kept unconditionally (armed or not), so
		// they cannot differ; everything else must match exactly too.
		if !reflect.DeepEqual(plain, armed) {
			t.Fatalf("%s: arming recovery perturbed a zero-fault run:\nplain %+v\narmed %+v", e.name, plain, armed)
		}
	}
}

// TestRecoveryFlitConservation is the property test behind the
// wormhole flit audit: across seeds and fault plans, every injected
// flit is ejected, aborted, or resident at run end — the conservation
// monitor (which re-checks the identity at every fault epoch) must
// stay quiet and the resident remainder can never go negative. Small
// enough to run under -race.
func TestRecoveryFlitConservation(t *testing.T) {
	d, err := core.NewV(36)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	for seed := uint64(1); seed <= 3; seed++ {
		rt, err := NewDSNSourceRouted(d)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Default()
		cfg.Seed = seed
		cfg.WarmupCycles = 1000
		cfg.MeasureCycles = 3000
		cfg.DrainCycles = 30000
		cfg.WatchdogCycles = 20000
		pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
		s, err := NewWormSim(cfg, g, rt, pat, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		plan := NewFaultPlan(
			LinkDown(1500, int(seed)%g.M()),
			LinkDown(2500, (7*int(seed))%g.M()),
			SwitchDown(3000, int(seed)%g.N()),
		)
		if err := s.SetFaultPlan(plan); err != nil {
			t.Fatal(err)
		}
		if err := s.SetMonitors(Monitors{Conservation: true}); err != nil {
			t.Fatal(err)
		}
		rc := recovery.Default()
		rc.StallThresholdCycles = 1024
		rc.ConfirmCycles = 256
		if err := s.SetRecovery(rc); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.InjectedFlits <= 0 {
			t.Fatalf("seed %d: no flits injected", seed)
		}
		if resident := res.InjectedFlits - res.EjectedFlits - res.AbortedFlits; resident < 0 {
			t.Fatalf("seed %d: flit books negative: injected %d ejected %d aborted %d",
				seed, res.InjectedFlits, res.EjectedFlits, res.AbortedFlits)
		}
		if res.DeadlocksDetected != res.DeadlocksRecovered+res.DeadlocksReleased+res.DeadlocksLost {
			t.Fatalf("seed %d: unresolved deadlocks: detected %d recovered %d released %d lost %d",
				seed, res.DeadlocksDetected, res.DeadlocksRecovered, res.DeadlocksReleased, res.DeadlocksLost)
		}
	}
}

// TestRecoveryDrainEpoch checks drain-before-reconfigure: with
// DrainOnFault set, a fault epoch pauses injection until the fabric is
// empty and the table swap happens atomically at the end of the drain
// window; the run stays clean and reports the drain epochs it served.
func TestRecoveryDrainEpoch(t *testing.T) {
	d, err := core.NewV(36)
	if err != nil {
		t.Fatal(err)
	}
	g := d.Graph()
	for _, e := range engines {
		rt, err := NewDSNSourceRouted(d)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Default()
		cfg.Seed = 3
		cfg.WarmupCycles = 1000
		cfg.MeasureCycles = 3000
		cfg.DrainCycles = 30000
		cfg.WatchdogCycles = 20000
		pat := traffic.Uniform{Hosts: g.N() * cfg.HostsPerSwitch}
		s, err := e.new(cfg, g, rt, pat, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetFaultPlan(NewFaultPlan(LinkDown(2000, 5))); err != nil {
			t.Fatal(err)
		}
		if err := s.SetMonitors(Monitors{Conservation: true}); err != nil {
			t.Fatal(err)
		}
		// Drain completion depends on the detector: with the table swap
		// deferred, worms whose only route crosses the dead link park
		// until recovery aborts them, so the thresholds must beat the
		// watchdog.
		rc := recovery.Default()
		rc.StallThresholdCycles = 1024
		rc.ConfirmCycles = 256
		rc.DrainOnFault = true
		if err := s.SetRecovery(rc); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%s: drain run failed: %v", e.name, err)
		}
		if res.DrainEpochs < 1 {
			t.Fatalf("%s: fault landed but no drain epoch recorded", e.name)
		}
		if res.DrainPausedCycles < 1 {
			t.Fatalf("%s: drain epoch served but no paused cycles recorded", e.name)
		}
		if res.DeliveredTotal == 0 {
			t.Fatalf("%s: nothing delivered after drain", e.name)
		}
	}
}
