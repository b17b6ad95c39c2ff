// Package collectives models HPC collective-communication workloads as
// deterministic message DAGs and generates the classic algorithms (ring
// and recursive-halving/doubling allreduce, binomial-tree broadcast and
// reduce, ring allgather, pairwise-exchange all-to-all) over the
// simulator's host space.
//
// A DAG is a closed-loop workload: each message may inject only after
// every message it depends on has been *delivered*, so the cost of the
// workload is a dependency-ordered makespan rather than the steady-state
// latency of the open-loop traffic patterns in internal/traffic. The
// closed-loop replay engine in internal/netsim (SetReplay) executes a
// DAG cycle-accurately and reports the makespan with a per-phase
// breakdown.
package collectives

import (
	"fmt"
	"math"
	"math/rand/v2"

	"dsnet/internal/netsim"
)

// DAG is a complete collective workload over Hosts hosts: the replay the
// simulators execute plus the parameters it was generated from. The
// embedded Replay is named "collective/algo"; each message sends Flits
// flits from SrcHost to DstHost once every message in Deps (indices into
// Messages, all smaller than its own) has been delivered, and its Phase
// indexes the algorithm stages in Phases (e.g. reduce-scatter vs
// allgather) for the per-phase makespan breakdown.
//
// Generated messages are read-only: Permuted and ToReplay share them
// (or their dependency lists) instead of copying.
type DAG struct {
	netsim.Replay
	Collective string // "allreduce", "allgather", "broadcast", "reduce", "all-to-all"
	Algo       string // "ring", "halving-doubling", "binomial", "pairwise"
	Hosts      int
	ChunkFlits int // the generator's base chunk size
}

// newDAG checks a generator's arguments and starts an empty workload
// with room for count messages.
func newDAG(collective, algo string, hosts, chunkFlits, count int, phases ...string) (*DAG, error) {
	name := collective + "/" + algo
	if hosts < 2 {
		return nil, fmt.Errorf("collectives: %s needs >= 2 hosts, got %d", name, hosts)
	}
	if chunkFlits < 1 {
		return nil, fmt.Errorf("collectives: %s needs >= 1 chunk flit, got %d", name, chunkFlits)
	}
	// Tree messages carry the whole hosts x chunkFlits vector, and every
	// message size must fit ReplayMessage.Flits.
	if chunkFlits > math.MaxInt32/hosts {
		return nil, fmt.Errorf("collectives: %s vector of %d hosts x %d chunk flits exceeds %d flits",
			name, hosts, chunkFlits, math.MaxInt32)
	}
	return &DAG{
		Replay: netsim.Replay{
			Name:     name,
			Phases:   phases,
			Messages: make([]netsim.ReplayMessage, 0, count),
		},
		Collective: collective, Algo: algo,
		Hosts: hosts, ChunkFlits: chunkFlits,
	}, nil
}

// Validate checks what a replay leaves open, at least two hosts and at
// least one phase name, and then everything SetReplay checks over Hosts
// hosts (netsim.Replay.Validate), acyclicity included.
func (d *DAG) Validate() error {
	if d.Hosts < 2 {
		return fmt.Errorf("collectives: %s over %d hosts (need >= 2)", d.Name, d.Hosts)
	}
	if len(d.Phases) == 0 {
		return fmt.Errorf("collectives: %s has no phase names", d.Name)
	}
	return d.Replay.Validate(d.Hosts)
}

// Permuted returns a copy of the DAG with collective ranks mapped onto
// physical hosts by a seeded random permutation. The DAG structure
// (dependencies, sizes, phases) is untouched; only endpoint labels
// change. This is the placement-randomization knob: repetitions across
// seeds measure how sensitive a topology's makespan is to where the job's
// ranks land. The permutation is a deterministic function of the seed.
//
// Only the message array is copied, to relabel its endpoints: the copy
// shares d's dependency lists and phase names, which are read-only.
func (d *DAG) Permuted(seed uint64) *DAG {
	rng := rand.New(rand.NewPCG(seed, 0xc011ec7))
	perm := make([]int32, d.Hosts)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := d.Hosts - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := *d
	out.Messages = make([]netsim.ReplayMessage, len(d.Messages))
	for i, m := range d.Messages {
		m.SrcHost = perm[m.SrcHost]
		m.DstHost = perm[m.DstHost]
		out.Messages[i] = m
	}
	return &out
}

// ToReplay returns the closed-loop workload the simulators execute
// (netsim.SetReplay): a copy of d's embedded Replay header. It copies no
// message; the replay shares d's phase names and messages, which are
// read-only, and the simulators only read them, so any number of runs
// may share one DAG.
func ToReplay(d *DAG) *netsim.Replay {
	r := d.Replay
	return &r
}

// TotalFlits sums the payload of every message.
func (d *DAG) TotalFlits() int64 {
	var t int64
	for _, m := range d.Messages {
		t += int64(m.Flits)
	}
	return t
}
