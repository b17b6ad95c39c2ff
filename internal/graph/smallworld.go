package graph

import (
	"math"
	"runtime"
	"sync"
)

// LocalClustering returns the local clustering coefficient of v: the
// fraction of pairs of distinct neighbors that are themselves adjacent.
// Vertices with fewer than two distinct neighbors have coefficient 0.
func (g *Graph) LocalClustering(v int) float64 {
	nbrs := g.NeighborIDs(v)
	k := len(nbrs)
	if k < 2 {
		return 0
	}
	links := 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if g.HasEdge(nbrs[i], nbrs[j]) {
				links++
			}
		}
	}
	return 2 * float64(links) / float64(k*(k-1))
}

// ClusteringCoefficient returns the average local clustering coefficient
// (Watts & Strogatz). Small-world networks combine high clustering with
// low average path length; pure random graphs have clustering near
// degree/n.
func (g *Graph) ClusteringCoefficient() float64 {
	if g.n == 0 {
		return 0
	}
	var sum float64
	for v := 0; v < g.n; v++ {
		sum += g.LocalClustering(v)
	}
	return sum / float64(g.n)
}

// SmallWorldIndex computes the Humphries-Gurney sigma of the graph
// against an idealized random graph of the same size and mean degree:
// sigma = (C/C_rand) / (L/L_rand) with C_rand = <k>/n and
// L_rand = ln n / ln <k>. Sigma > 1 indicates small-world structure.
// Returns 0 when the graph is disconnected or degenerate.
func (g *Graph) SmallWorldIndex() float64 {
	if g.n < 3 {
		return 0
	}
	m := g.AllPairs()
	if !m.Connected || m.ASPL == 0 {
		return 0
	}
	k := g.AverageDegree()
	if k <= 1 {
		return 0
	}
	cRand := k / float64(g.n)
	lRand := math.Log(float64(g.n)) / math.Log(k)
	c := g.ClusteringCoefficient()
	if cRand == 0 || lRand == 0 {
		return 0
	}
	return (c / cRand) / (m.ASPL / lRand)
}

// betweennessBlocks is the number of contiguous source blocks
// EdgeBetweenness sums separately. The split depends on the vertex
// count alone, and the block sums are merged in source order, so the
// floating-point result has the same bits under any scheduling and at
// any GOMAXPROCS.
const betweennessBlocks = 64

// EdgeBetweenness computes the edge betweenness centrality of every edge
// using Brandes' algorithm, parallelized over blocks of source vertices.
// The result is indexed by edge index and normalized by the number of
// ordered source pairs, so values are comparable across graph sizes. For
// deterministic shortest-path-based routing, edge betweenness predicts
// channel load under uniform traffic.
func (g *Graph) EdgeBetweenness() []float64 {
	out := make([]float64, len(g.edges))
	if g.n == 0 {
		return out
	}
	size := (g.n + betweennessBlocks - 1) / betweennessBlocks
	nBlocks := (g.n + size - 1) / size
	partials := make([][]float64, nBlocks)
	nWorkers := min(runtime.GOMAXPROCS(0), nBlocks)
	blocks := make(chan int, nBlocks)
	for b := 0; b < nBlocks; b++ {
		blocks <- b
	}
	close(blocks)
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Brandes working arrays, reused across sources.
			dist := make([]int32, g.n)
			sigma := make([]float64, g.n)
			delta := make([]float64, g.n)
			order := make([]int32, 0, g.n)
			preds := make([][]int32, g.n)
			predEdge := make([][]int32, g.n)
			for b := range blocks {
				bc := make([]float64, len(g.edges))
				for s := b * size; s < min((b+1)*size, g.n); s++ {
					g.brandesFrom(s, bc, dist, sigma, delta, &order, preds, predEdge)
				}
				partials[b] = bc
			}
		}()
	}
	wg.Wait()
	for _, bc := range partials {
		for i, v := range bc {
			out[i] += v
		}
	}
	norm := float64(g.n) * float64(g.n-1)
	if norm > 0 {
		for i := range out {
			out[i] /= norm
		}
	}
	return out
}

// brandesFrom accumulates one source's contribution to edge betweenness.
func (g *Graph) brandesFrom(s int, bc []float64, dist []int32, sigma, delta []float64,
	orderBuf *[]int32, preds, predEdge [][]int32) {
	order := (*orderBuf)[:0]
	for i := range dist {
		dist[i] = Unreachable
		sigma[i] = 0
		delta[i] = 0
		preds[i] = preds[i][:0]
		predEdge[i] = predEdge[i][:0]
	}
	dist[s] = 0
	sigma[s] = 1
	order = append(order, int32(s))
	for head := 0; head < len(order); head++ {
		u := order[head]
		du := dist[u]
		for _, h := range g.adj[u] {
			v := h.To
			if dist[v] == Unreachable {
				dist[v] = du + 1
				order = append(order, v)
			}
			if dist[v] == du+1 {
				sigma[v] += sigma[u]
				preds[v] = append(preds[v], u)
				predEdge[v] = append(predEdge[v], h.Edge)
			}
		}
	}
	// Accumulate dependencies in reverse BFS order.
	for i := len(order) - 1; i > 0; i-- {
		v := order[i]
		coeff := (1 + delta[v]) / sigma[v]
		for j, u := range preds[v] {
			c := sigma[u] * coeff
			delta[u] += c
			bc[predEdge[v][j]] += c
		}
	}
	*orderBuf = order
}
