// Package netsim is a cycle-accurate flit-level interconnection network
// simulator reproducing the evaluation methodology of Section VII:
// virtual cut-through switching, credit-based virtual-channel flow
// control, a multi-stage router pipeline (routing, VC allocation, switch
// allocation, crossbar traversal) costing over 100 ns per header, 20 ns
// combined injection and link delay, 33-flit packets of 256-bit flits on
// 96 Gbps links, and topology-agnostic adaptive routing with up*/down*
// escape paths [24].
//
// One simulator cycle is the serialization time of one flit on a link
// (256 bits / 96 Gbps = 2.67 ns). All latencies are reported in
// nanoseconds.
package netsim

import (
	"fmt"
	"io"
)

// Config holds the simulator parameters. Default returns the paper's
// values; time-valued fields are expressed in cycles (one cycle = FlitBits
// / LinkGbps nanoseconds).
type Config struct {
	VCs             int     // virtual channels per physical link (paper: 4)
	BufFlitsPerVC   int     // input buffer per VC; >= PacketFlits for VCT
	PacketFlits     int     // flits per packet (paper: 33, 1 header)
	PipelineCycles  int64   // header delay through a switch (paper: >100 ns)
	LinkDelayCycles int64   // injection + link delay (paper: 20 ns total)
	HostsPerSwitch  int     // compute nodes per switch (paper: 4)
	FlitBits        int     // bits per flit (paper: 256)
	LinkGbps        float64 // effective link bandwidth (paper: 96)
	Seed            uint64  // PRNG seed for injection processes

	// EscapePatienceCycles is how long a head packet must be blocked on
	// its adaptive candidates before the router offers it the up*/down*
	// escape channel. Escape paths are non-minimal and tree-concentrated;
	// diverting to them too eagerly collapses post-saturation throughput.
	// Deadlock freedom only requires that blocked packets *eventually*
	// reach the escape channel, which any finite patience preserves.
	EscapePatienceCycles int64

	WarmupCycles  int64 // cycles before measurement starts
	MeasureCycles int64 // measurement window length
	DrainCycles   int64 // extra cycles to let measured packets finish

	// Fault-tolerance transport parameters, consulted only when a
	// FaultPlan is attached (SetFaultPlan) and only once the first
	// failure has actually occurred, so a zero-fault plan is
	// bit-identical to a plain run. Zero values select the built-in
	// defaults at SetFaultPlan time, keeping hand-rolled Configs valid.
	//
	// RetryBudget is how many times the source reinjects a packet whose
	// flits were lost to a fault or that timed out head-blocked; once
	// exhausted the packet counts as permanently lost.
	RetryBudget int
	// RetryBackoffCycles is the base source-retry delay; attempt k waits
	// RetryBackoffCycles << min(k, 5) cycles (bounded exponential
	// backoff).
	RetryBackoffCycles int64
	// FaultTimeoutCycles is how long a routable head-of-queue packet may
	// stay blocked before the switch drops it back to the source retry
	// path. This is what keeps the network live when faults disconnect a
	// destination: unroutable packets drain instead of deadlocking.
	FaultTimeoutCycles int64

	// WatchdogCycles is the progress watchdog's deadline: Run aborts
	// with a *NoProgressError (errors.Is ErrNoProgress) when no packet
	// is generated, granted, delivered, or dropped for this many cycles
	// while traffic is in flight. 0 selects the built-in default, so
	// hand-rolled Configs keep the historical behavior.
	WatchdogCycles int64

	// Trace, when non-nil, receives a line per lifecycle event (GEN,
	// INJECT, GRANT, EJECT, DELIVER) for the first TracePackets packets —
	// a debugging and teaching aid. The wormhole engine logs only the
	// events of the shared fabric (GEN, DELIVER, recovery aborts).
	// Tracing does not alter simulation behavior.
	Trace        io.Writer
	TracePackets int64
}

// Default returns the paper's simulation parameters with a measurement
// schedule suitable for 64-switch networks.
func Default() Config {
	return Config{
		VCs:                  4,
		BufFlitsPerVC:        33,
		PacketFlits:          33,
		PipelineCycles:       38, // 38 cycles x 2.67 ns = 101 ns
		LinkDelayCycles:      8,  // 8 cycles x 2.67 ns = 21 ns
		HostsPerSwitch:       4,
		FlitBits:             256,
		LinkGbps:             96,
		Seed:                 1,
		EscapePatienceCycles: 16,
		WarmupCycles:         20000,
		MeasureCycles:        40000,
		DrainCycles:          40000,
		RetryBudget:          4,
		RetryBackoffCycles:   64,
		FaultTimeoutCycles:   2048,
		WatchdogCycles:       250000,
	}
}

// CycleNS returns the duration of one simulator cycle in nanoseconds.
func (c Config) CycleNS() float64 { return float64(c.FlitBits) / c.LinkGbps }

// GbpsPerFlitPerCycle converts a rate in flits/cycle/host into
// Gbit/s/host.
func (c Config) GbpsPerFlitPerCycle() float64 { return c.LinkGbps }

// Validate reports the first invalid parameter for virtual cut-through
// operation (buffers must hold a whole packet).
func (c Config) Validate() error {
	if err := c.validateCommon(); err != nil {
		return err
	}
	if c.BufFlitsPerVC < c.PacketFlits {
		return fmt.Errorf("netsim: VCT needs buffers >= packet size, got %d < %d", c.BufFlitsPerVC, c.PacketFlits)
	}
	return nil
}

// ValidateWormhole reports the first invalid parameter for wormhole
// operation, which permits buffers smaller than a packet.
func (c Config) ValidateWormhole() error {
	if err := c.validateCommon(); err != nil {
		return err
	}
	if c.BufFlitsPerVC < 1 {
		return fmt.Errorf("netsim: wormhole needs buffers >= 1 flit, got %d", c.BufFlitsPerVC)
	}
	return nil
}

func (c Config) validateCommon() error {
	switch {
	case c.VCs < 1:
		return fmt.Errorf("netsim: VCs %d < 1", c.VCs)
	case c.PacketFlits < 1:
		return fmt.Errorf("netsim: packet size %d < 1 flit", c.PacketFlits)
	case c.PipelineCycles < 0 || c.LinkDelayCycles < 0:
		return fmt.Errorf("netsim: negative delays")
	case c.HostsPerSwitch < 1:
		return fmt.Errorf("netsim: hosts per switch %d < 1", c.HostsPerSwitch)
	case c.FlitBits < 1 || c.LinkGbps <= 0:
		return fmt.Errorf("netsim: bad link parameters")
	case c.WarmupCycles < 0 || c.MeasureCycles < 1 || c.DrainCycles < 0:
		return fmt.Errorf("netsim: bad measurement schedule")
	case c.RetryBudget < 0 || c.RetryBackoffCycles < 0 || c.FaultTimeoutCycles < 0:
		return fmt.Errorf("netsim: negative fault-tolerance parameters")
	case c.WatchdogCycles < 0:
		return fmt.Errorf("netsim: negative watchdog deadline %d", c.WatchdogCycles)
	}
	return nil
}
