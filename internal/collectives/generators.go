package collectives

import (
	"fmt"
	"math/bits"

	"dsnet/internal/netsim"
)

// The generators below model the logical vector of a collective as
// Hosts x chunkFlits flits: every host contributes (or receives) one
// chunk of chunkFlits flits. Ring algorithms move one chunk per message,
// recursive halving/doubling moves power-of-two windows of the vector,
// and tree broadcast/reduce move the whole vector per hop. Dependencies
// are exactly the data dependencies of the algorithm: a host may send a
// block only after the message that delivered (the inputs of) that block
// to it.

// RingAllReduce generates the classic two-stage ring allreduce over k
// hosts: k-1 reduce-scatter steps followed by k-1 allgather steps, each
// step sending one chunk from every host to its ring successor, for
// 2(k-1)k messages total. Step s of host i depends on the message host i
// received in step s-1 (the chunk it forwards next).
func RingAllReduce(hosts, chunkFlits int) (*DAG, error) {
	k := hosts
	d, err := newDAG("allreduce", "ring", hosts, chunkFlits, 2*(k-1)*k, "reduce-scatter", "allgather")
	if err != nil {
		return nil, err
	}
	rs := func(s, i int) int32 { return int32(s*k + i) }
	ag := func(s, i int) int32 { return int32(k*(k-1) + s*k + i) }
	for s := 0; s < k-1; s++ {
		for i := 0; i < k; i++ {
			m := netsim.ReplayMessage{
				SrcHost: int32(i), DstHost: int32((i + 1) % k),
				Flits: int32(chunkFlits), Phase: 0,
			}
			if s > 0 {
				m.Deps = []int32{rs(s-1, (i-1+k)%k)}
			}
			d.Messages = append(d.Messages, m)
		}
	}
	for s := 0; s < k-1; s++ {
		for i := 0; i < k; i++ {
			m := netsim.ReplayMessage{
				SrcHost: int32(i), DstHost: int32((i + 1) % k),
				Flits: int32(chunkFlits), Phase: 1,
			}
			if s == 0 {
				// The fully reduced chunk host i opens the allgather with
				// arrived in the last reduce-scatter step.
				m.Deps = []int32{rs(k-2, (i-1+k)%k)}
			} else {
				m.Deps = []int32{ag(s-1, (i-1+k)%k)}
			}
			d.Messages = append(d.Messages, m)
		}
	}
	return d, nil
}

// HalvingDoublingAllReduce generates the recursive-halving
// reduce-scatter followed by recursive-doubling allgather over a
// power-of-two host count: 2·log2(k) rounds in which every host
// exchanges with a partner at XOR distance, halving (then doubling) the
// moved window each round, for 2·k·log2(k) messages total.
func HalvingDoublingAllReduce(hosts, chunkFlits int) (*DAG, error) {
	k := hosts
	q := bits.TrailingZeros(uint(k))
	d, err := newDAG("allreduce", "halving-doubling", hosts, chunkFlits, 2*k*q, "reduce-scatter", "allgather")
	if err != nil {
		return nil, err
	}
	if hosts&(hosts-1) != 0 {
		return nil, fmt.Errorf("collectives: halving-doubling needs a power-of-two host count, got %d", hosts)
	}
	vector := k * chunkFlits
	hd := func(r, i int) int32 { return int32(r*k + i) }
	ag := func(r, i int) int32 { return int32(q*k + r*k + i) }
	for r := 0; r < q; r++ {
		dist := 1 << (q - 1 - r)
		for i := 0; i < k; i++ {
			m := netsim.ReplayMessage{
				SrcHost: int32(i), DstHost: int32(i ^ dist),
				Flits: int32(vector >> (r + 1)), Phase: 0,
			}
			if r > 0 {
				// The window host i halves this round was reduced with the
				// data its previous partner sent it.
				m.Deps = []int32{hd(r-1, i^(dist<<1))}
			}
			d.Messages = append(d.Messages, m)
		}
	}
	for r := 0; r < q; r++ {
		dist := 1 << r
		for i := 0; i < k; i++ {
			m := netsim.ReplayMessage{
				SrcHost: int32(i), DstHost: int32(i ^ dist),
				Flits: int32(vector >> (q - r)), Phase: 1,
			}
			if r == 0 {
				m.Deps = []int32{hd(q-1, i^1)}
			} else {
				m.Deps = []int32{ag(r-1, i^(dist>>1))}
			}
			d.Messages = append(d.Messages, m)
		}
	}
	return d, nil
}

// BinomialBroadcast generates the binomial-tree broadcast from root:
// ceil(log2(k)) rounds in which every host that already holds the vector
// sends it to one new host, for k-1 messages total, each carrying the
// whole k·chunkFlits vector.
func BinomialBroadcast(hosts, chunkFlits, root int) (*DAG, error) {
	k := hosts
	d, err := newDAG("broadcast", "binomial", hosts, chunkFlits, k-1, "broadcast")
	if err != nil {
		return nil, err
	}
	if root < 0 || root >= hosts {
		return nil, fmt.Errorf("collectives: broadcast root %d outside [0,%d)", root, hosts)
	}
	abs := func(rel int) int32 { return int32((root + rel) % k) }
	recv := make([]int32, k) // message that delivered the vector to rel j
	for j := range recv {
		recv[j] = -1
	}
	for r := 0; 1<<r < k; r++ {
		for j := 0; j < 1<<r && j+(1<<r) < k; j++ {
			m := netsim.ReplayMessage{
				SrcHost: abs(j), DstHost: abs(j + (1 << r)),
				Flits: int32(k * chunkFlits), Phase: 0,
			}
			if recv[j] >= 0 {
				m.Deps = []int32{recv[j]}
			}
			recv[j+(1<<r)] = int32(len(d.Messages))
			d.Messages = append(d.Messages, m)
		}
	}
	return d, nil
}

// BinomialReduce generates the mirror of BinomialBroadcast: the same
// k-1 edges walked leafward-first, each sender waiting for every
// contribution it must fold in before passing its partial sum up.
func BinomialReduce(hosts, chunkFlits, root int) (*DAG, error) {
	k := hosts
	d, err := newDAG("reduce", "binomial", hosts, chunkFlits, k-1, "reduce")
	if err != nil {
		return nil, err
	}
	if root < 0 || root >= hosts {
		return nil, fmt.Errorf("collectives: reduce root %d outside [0,%d)", root, hosts)
	}
	abs := func(rel int) int32 { return int32((root + rel) % k) }
	rounds := 0
	for 1<<rounds < k {
		rounds++
	}
	recvs := make([][]int32, k) // messages already folded into rel j
	for r := rounds - 1; r >= 0; r-- {
		for j := 0; j < 1<<r && j+(1<<r) < k; j++ {
			src := j + (1 << r)
			recvs[j] = append(recvs[j], int32(len(d.Messages)))
			d.Messages = append(d.Messages, netsim.ReplayMessage{
				SrcHost: abs(src), DstHost: abs(j),
				Flits: int32(k * chunkFlits), Phase: 0,
				Deps: append([]int32(nil), recvs[src]...),
			})
		}
	}
	return d, nil
}

// RingAllGather generates the k-1 step ring allgather: every host
// forwards the newest chunk it holds to its successor, for (k-1)k
// messages total.
func RingAllGather(hosts, chunkFlits int) (*DAG, error) {
	k := hosts
	d, err := newDAG("allgather", "ring", hosts, chunkFlits, (k-1)*k, "allgather")
	if err != nil {
		return nil, err
	}
	id := func(s, i int) int32 { return int32(s*k + i) }
	for s := 0; s < k-1; s++ {
		for i := 0; i < k; i++ {
			m := netsim.ReplayMessage{
				SrcHost: int32(i), DstHost: int32((i + 1) % k),
				Flits: int32(chunkFlits), Phase: 0,
			}
			if s > 0 {
				m.Deps = []int32{id(s-1, (i-1+k)%k)}
			}
			d.Messages = append(d.Messages, m)
		}
	}
	return d, nil
}

// PairwiseAllToAll generates the personalized all-to-all as k-1 shifted
// exchange rounds: in round r host i sends its block for host (i+r) mod k
// directly to it, for (k-1)k messages total. Each host's rounds are
// serialized (one outstanding send per host), the usual incast-avoiding
// schedule; rounds of different hosts overlap freely.
func PairwiseAllToAll(hosts, chunkFlits int) (*DAG, error) {
	k := hosts
	d, err := newDAG("all-to-all", "pairwise", hosts, chunkFlits, (k-1)*k, "exchange")
	if err != nil {
		return nil, err
	}
	id := func(r, i int) int32 { return int32((r-1)*k + i) }
	for r := 1; r < k; r++ {
		for i := 0; i < k; i++ {
			m := netsim.ReplayMessage{
				SrcHost: int32(i), DstHost: int32((i + r) % k),
				Flits: int32(chunkFlits), Phase: 0,
			}
			if r > 1 {
				m.Deps = []int32{id(r-1, i)}
			}
			d.Messages = append(d.Messages, m)
		}
	}
	return d, nil
}

// Collectives lists the supported collective names.
var Collectives = []string{"allreduce", "allgather", "broadcast", "reduce", "all-to-all"}

// DefaultAlgo returns the default algorithm for a collective name.
func DefaultAlgo(collective string) string {
	switch collective {
	case "allreduce", "allgather":
		return "ring"
	case "broadcast", "reduce":
		return "binomial"
	case "all-to-all", "alltoall":
		return "pairwise"
	}
	return ""
}

// Generate builds the DAG for a (collective, algorithm) pair by name.
// An empty algo selects the collective's default. Tree collectives root
// at host 0; use the constructors directly for other roots.
func Generate(collective, algo string, hosts, chunkFlits int) (*DAG, error) {
	if algo == "" {
		algo = DefaultAlgo(collective)
	}
	switch collective + "/" + algo {
	case "allreduce/ring":
		return RingAllReduce(hosts, chunkFlits)
	case "allreduce/halving-doubling":
		return HalvingDoublingAllReduce(hosts, chunkFlits)
	case "allgather/ring":
		return RingAllGather(hosts, chunkFlits)
	case "broadcast/binomial":
		return BinomialBroadcast(hosts, chunkFlits, 0)
	case "reduce/binomial":
		return BinomialReduce(hosts, chunkFlits, 0)
	case "all-to-all/pairwise", "alltoall/pairwise":
		return PairwiseAllToAll(hosts, chunkFlits)
	}
	return nil, fmt.Errorf("collectives: unknown workload %s/%s (collectives: %v)", collective, algo, Collectives)
}
