package main

// The CPU speed of the shared host the benchmark was tuned on drifts by
// 15–25% over minutes (frequency and neighbours' load; the guest exposes
// no cycle counters), which swamps the differences the benchmark exists
// to show. So before every cell the benchmark runs a fixed calibration
// kernel, and every host time of a pass is scaled by how long that
// pass's kernels took against their nominal time. The kernel is an
// L2-resident dependent-load walk with data-dependent branches, the
// access pattern of the simulator's per-cycle queue scans; its time
// tracks a pass's CPU time with correlation 0.8–0.98, where a kernel run
// once before the pass tracked it with 0.4–0.5. Because the kernel is
// fixed benchmark code, a change to the simulator moves the scaled times
// while a change in machine speed cancels out.

const (
	probeWords = 1 << 16 // 256 KiB of table: stays in L2
	probeSteps = 500_000
	// probeNominalNS is the kernel's CPU time at the reference speed
	// every reported host time is scaled to.
	probeNominalNS = 4e6
)

// probeTable is the kernel's walk: a pseudo-random successor per slot.
var probeTable = func() []uint32 {
	t := make([]uint32, probeWords)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x & (probeWords - 1)
	}
	return t
}()

// probe runs the calibration kernel under its own span. The folded
// result is kept so the compiler cannot drop the loop.
func (t *tracer) probe() {
	t.begin(spanProbe)
	idx, acc := uint32(0), uint32(0)
	for i := uint32(0); i < probeSteps; i++ {
		idx = (probeTable[idx] ^ i) & (probeWords - 1)
		if idx&3 == 0 {
			acc += idx
		} else {
			acc ^= idx >> 2
		}
	}
	t.end()
	t.probeSink ^= acc
}

// slowdown is how much slower than the reference speed the host ran
// during a pass: its kernels' CPU time over their nominal time.
func slowdown(spans []span) float64 {
	n, d := 0, int64(0)
	for _, s := range spans {
		if s.Name == spanProbe {
			n++
			d += s.dur()
		}
	}
	if n == 0 {
		return 1
	}
	return float64(d) / (float64(n) * probeNominalNS)
}
