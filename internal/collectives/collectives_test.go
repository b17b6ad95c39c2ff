package collectives

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"dsnet/internal/netsim"
	"dsnet/internal/topology"
)

// messageCount returns the closed-form message count of each workload.
func messageCount(collective, algo string, k int) int {
	q := 0
	for 1<<q < k {
		q++
	}
	switch collective + "/" + algo {
	case "allreduce/ring":
		return 2 * (k - 1) * k
	case "allreduce/halving-doubling":
		return 2 * k * q
	case "allgather/ring", "all-to-all/pairwise":
		return (k - 1) * k
	case "broadcast/binomial", "reduce/binomial":
		return k - 1
	}
	return -1
}

// workloads enumerates every (collective, algo) pair, with the host
// constraint halving-doubling imposes.
var workloads = []struct {
	collective, algo string
	pow2Only         bool
}{
	{"allreduce", "ring", false},
	{"allreduce", "halving-doubling", true},
	{"allgather", "ring", false},
	{"broadcast", "binomial", false},
	{"reduce", "binomial", false},
	{"all-to-all", "pairwise", false},
}

// hostsFor maps an arbitrary quick-generated value to a valid host count.
func hostsFor(raw uint16, pow2Only bool) int {
	if pow2Only {
		return 2 << (raw % 6) // 2..64
	}
	return 2 + int(raw%63) // 2..64
}

func TestGeneratorsValidAndCounted(t *testing.T) {
	for _, w := range workloads {
		prop := func(raw uint16, chunkRaw uint8) bool {
			hosts := hostsFor(raw, w.pow2Only)
			chunk := 1 + int(chunkRaw%64)
			d, err := Generate(w.collective, w.algo, hosts, chunk)
			if err != nil {
				t.Logf("%s/%s hosts=%d: %v", w.collective, w.algo, hosts, err)
				return false
			}
			if err := d.Validate(); err != nil {
				t.Logf("%s/%s hosts=%d: %v", w.collective, w.algo, hosts, err)
				return false
			}
			if len(d.Messages) != messageCount(w.collective, w.algo, hosts) {
				t.Logf("%s/%s hosts=%d: %d messages, want %d",
					w.collective, w.algo, hosts, len(d.Messages), messageCount(w.collective, w.algo, hosts))
				return false
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s/%s: %v", w.collective, w.algo, err)
		}
	}
}

// Every host of a symmetric collective both sends and receives; for the
// rooted trees every non-root receives (broadcast) or sends (reduce) and
// the root does the converse.
func TestEveryHostParticipates(t *testing.T) {
	for _, w := range workloads {
		prop := func(raw uint16) bool {
			hosts := hostsFor(raw, w.pow2Only)
			d, err := Generate(w.collective, w.algo, hosts, 4)
			if err != nil {
				return false
			}
			sends := make([]bool, hosts)
			recvs := make([]bool, hosts)
			for _, m := range d.Messages {
				sends[m.SrcHost] = true
				recvs[m.DstHost] = true
			}
			for h := 0; h < hosts; h++ {
				wantSend, wantRecv := true, true
				switch w.collective {
				case "broadcast":
					// Under a full binomial tree every internal host
					// forwards; only the last-round leaves never send.
					wantSend = sends[h]
					wantRecv = h != 0
				case "reduce":
					wantSend = h != 0
					wantRecv = recvs[h]
				}
				if sends[h] != wantSend || recvs[h] != wantRecv {
					t.Logf("%s/%s hosts=%d: host %d sends=%v recvs=%v",
						w.collective, w.algo, hosts, h, sends[h], recvs[h])
					return false
				}
			}
			// The roots participate on the complementary side.
			if w.collective == "broadcast" && !sends[0] {
				return false
			}
			if w.collective == "reduce" && !recvs[0] {
				return false
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("%s/%s: %v", w.collective, w.algo, err)
		}
	}
}

// Generation is a pure function of its arguments, and rank placement is a
// pure function of the permutation seed.
func TestGenerationBitIdentical(t *testing.T) {
	for _, w := range workloads {
		a, err := Generate(w.collective, w.algo, 16, 8)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(w.collective, w.algo, 16, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s/%s: generation not deterministic", w.collective, w.algo)
		}
		pa := a.Permuted(42)
		pb := b.Permuted(42)
		if !reflect.DeepEqual(pa, pb) {
			t.Errorf("%s/%s: Permuted(42) not deterministic", w.collective, w.algo)
		}
		if err := pa.Validate(); err != nil {
			t.Errorf("%s/%s permuted: %v", w.collective, w.algo, err)
		}
		if reflect.DeepEqual(a.Messages, a.Permuted(7).Messages) {
			t.Errorf("%s/%s: Permuted(7) left endpoints unchanged", w.collective, w.algo)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s/%s: Permuted mutated its receiver", w.collective, w.algo)
		}
	}
}

func TestPermutedPreservesStructure(t *testing.T) {
	d, err := RingAllReduce(12, 5)
	if err != nil {
		t.Fatal(err)
	}
	p := d.Permuted(3)
	if p.TotalFlits() != d.TotalFlits() {
		t.Fatalf("permutation changed total flits: %d vs %d", p.TotalFlits(), d.TotalFlits())
	}
	for i := range d.Messages {
		if !reflect.DeepEqual(p.Messages[i].Deps, d.Messages[i].Deps) ||
			p.Messages[i].Flits != d.Messages[i].Flits ||
			p.Messages[i].Phase != d.Messages[i].Phase {
			t.Fatalf("permutation changed structure of message %d", i)
		}
		// The relabelled copy shares the read-only dependency lists.
		if deps := d.Messages[i].Deps; len(deps) > 0 && &p.Messages[i].Deps[0] != &deps[0] {
			t.Fatalf("message %d dependency list copied, want shared", i)
		}
	}
	if &p.Messages[0] == &d.Messages[0] {
		t.Fatal("Permuted relabelled the receiver's messages")
	}
}

func TestGenerateRejectsBadArgs(t *testing.T) {
	cases := []struct {
		collective, algo string
		hosts, chunk     int
	}{
		{"allreduce", "ring", 1, 4},
		{"allreduce", "ring", 8, 0},
		{"allreduce", "halving-doubling", 12, 4}, // not a power of two
		{"nonsense", "", 8, 4},
		{"allreduce", "nonsense", 8, 4},
		// The whole vector must fit a message's int32 flit count: 64 x
		// 67,108,865 flits once wrapped to 64 flits per broadcast message,
		// and to negative halving-doubling messages.
		{"broadcast", "binomial", 64, 67108865},
		{"allreduce", "halving-doubling", 64, 67108865},
		{"allreduce", "ring", 2, math.MaxInt32},
	}
	for _, c := range cases {
		if _, err := Generate(c.collective, c.algo, c.hosts, c.chunk); err == nil {
			t.Errorf("Generate(%q, %q, %d, %d) accepted", c.collective, c.algo, c.hosts, c.chunk)
		}
	}
}

// The largest chunk whose vector fits int32 still generates every
// workload, and every message size stays positive.
func TestGenerateLargestChunk(t *testing.T) {
	const hosts = 64
	for _, w := range workloads {
		d, err := Generate(w.collective, w.algo, hosts, math.MaxInt32/hosts)
		if err != nil {
			t.Fatalf("%s/%s: %v", w.collective, w.algo, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s/%s: %v", w.collective, w.algo, err)
		}
	}
}

func TestDefaultAlgoCoversCollectives(t *testing.T) {
	for _, c := range Collectives {
		if DefaultAlgo(c) == "" {
			t.Errorf("no default algorithm for %q", c)
		}
		if _, err := Generate(c, "", 8, 4); err != nil {
			t.Errorf("Generate(%q, default): %v", c, err)
		}
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	d, err := RingAllGather(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	d.Messages[0].Deps = []int32{int32(len(d.Messages) - 1)}
	d.Messages[len(d.Messages)-1].Deps = []int32{0}
	if err := d.Validate(); err == nil {
		t.Fatal("cyclic DAG accepted")
	}
}

// A DAG must name its phases even though a bare replay need not.
func TestValidateNeedsPhaseNames(t *testing.T) {
	d, err := RingAllGather(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	d.Phases = nil
	if err := d.Validate(); err == nil {
		t.Fatal("DAG without phase names accepted")
	}
	if err := ToReplay(d).Validate(d.Hosts); err != nil {
		t.Fatalf("replay without phase names refused: %v", err)
	}
}

// ToReplay is positional: the replay is the DAG's own header, sharing
// its messages, so dependency edges survive the translation by
// construction and no message is copied.
func TestToReplayPositional(t *testing.T) {
	d, err := PairwiseAllToAll(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := ToReplay(d)
	if len(r.Messages) != len(d.Messages) {
		t.Fatalf("%d replay messages, want %d", len(r.Messages), len(d.Messages))
	}
	if err := r.Validate(6); err != nil {
		t.Fatal(err)
	}
	if r.Name != "all-to-all/pairwise" || !reflect.DeepEqual(r.Phases, d.Phases) {
		t.Fatalf("replay header %q %v, want %q %v", r.Name, r.Phases, d.Name, d.Phases)
	}
	i := rand.New(rand.NewSource(1)).Intn(len(d.Messages))
	if &r.Messages[i] != &d.Messages[i] {
		t.Fatalf("message %d copied, want shared", i)
	}
	if r == &d.Replay {
		t.Fatal("ToReplay returned the DAG's own header, want a copy")
	}
}

// Runs share one DAG's messages, so they must only read them: two
// simulators replaying one placement concurrently agree bit for bit and
// leave the DAG as generated. Under -race any write to the shared
// messages is a reported race.
func TestSharedReplayConcurrentRuns(t *testing.T) {
	tor, err := topology.Torus2D(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := tor.Graph()
	cfg := netsim.Default()
	gen := func() *DAG {
		d, err := Generate("allreduce", "halving-doubling", g.N()*cfg.HostsPerSwitch, cfg.PacketFlits)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := gen()
	replay := ToReplay(d.Permuted(5))
	var digests [2]string
	var errs [2]error
	var wg sync.WaitGroup
	for i := range digests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt, err := netsim.NewDuatoUpDown(g, cfg.VCs)
			if err != nil {
				errs[i] = err
				return
			}
			sim, err := netsim.NewSimReplay(cfg, g, rt, replay)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := sim.Run()
			if err == nil && !res.ReplayCompleted {
				err = fmt.Errorf("replay incomplete: %d of %d messages", res.ReplayDelivered, res.ReplayMessages)
			}
			errs[i], digests[i] = err, fmt.Sprintf("%#v", res)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if digests[0] != digests[1] {
		t.Fatalf("concurrent runs of one replay diverged:\n%s\n%s", digests[0], digests[1])
	}
	if !reflect.DeepEqual(d, gen()) {
		t.Fatal("runs modified the shared DAG")
	}
}
