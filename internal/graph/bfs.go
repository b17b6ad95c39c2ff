package graph

import (
	"runtime"
	"sync"
)

// Unreachable is the distance reported by BFS for vertices not connected to
// the source.
const Unreachable int32 = -1

// BFS computes hop distances from src to every vertex. Unreachable vertices
// get distance Unreachable. The returned slice has length g.N().
func (g *Graph) BFS(src int) []int32 {
	dist := make([]int32, g.n)
	g.bfsInto(src, dist, make([]int32, 0, g.n))
	return dist
}

// bfsInto runs BFS from src writing into dist, reusing queue as scratch.
// dist must have length g.n; all entries are overwritten.
func (g *Graph) bfsInto(src int, dist []int32, queue []int32) {
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, h := range g.adj[u] {
			if dist[h.To] == Unreachable {
				dist[h.To] = du + 1
				queue = append(queue, h.To)
			}
		}
	}
}

// ShortestDist returns the hop distance between s and t, or Unreachable.
func (g *Graph) ShortestDist(s, t int) int32 {
	if s == t {
		return 0
	}
	// Early-exit BFS.
	dist := make([]int32, g.n)
	for i := range dist {
		dist[i] = Unreachable
	}
	dist[s] = 0
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(s))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, h := range g.adj[u] {
			if dist[h.To] == Unreachable {
				if int(h.To) == t {
					return du + 1
				}
				dist[h.To] = du + 1
				queue = append(queue, h.To)
			}
		}
	}
	return Unreachable
}

// ShortestPath returns one shortest path from s to t as a vertex sequence
// including both endpoints, or nil if t is unreachable from s.
func (g *Graph) ShortestPath(s, t int) []int {
	if s == t {
		return []int{s}
	}
	parent := make([]int32, g.n)
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[s] = -1
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(s))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, h := range g.adj[u] {
			if parent[h.To] == -2 {
				parent[h.To] = u
				if int(h.To) == t {
					head = len(queue) // drain
					break
				}
				queue = append(queue, h.To)
			}
		}
	}
	if parent[t] == -2 {
		return nil
	}
	var rev []int
	for v := int32(t); v != -1; v = parent[v] {
		rev = append(rev, int(v))
	}
	path := make([]int, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path
}

// Connected reports whether the graph is connected (vacuously true for
// n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d == Unreachable {
			return false
		}
	}
	return true
}

// ComponentCount returns the number of connected components.
func (g *Graph) ComponentCount() int {
	_, count := g.Components()
	return count
}

// Components labels every vertex with its connected component and
// returns the labels with their count. Labels run from 0 in the order of
// each component's lowest vertex, so two vertices are connected exactly
// when their labels are equal.
func (g *Graph) Components() (label []int32, count int) {
	label = make([]int32, g.n)
	for i := range label {
		label[i] = -1
	}
	queue := make([]int32, 0, g.n)
	for s := 0; s < g.n; s++ {
		if label[s] >= 0 {
			continue
		}
		label[s] = int32(count)
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, h := range g.adj[u] {
				if label[h.To] < 0 {
					label[h.To] = int32(count)
					queue = append(queue, h.To)
				}
			}
		}
		count++
	}
	return label, count
}

// PathMetrics aggregates the all-pairs shortest-path statistics the paper's
// graph analysis reports (Figures 7 and 8).
type PathMetrics struct {
	Diameter  int32   // max finite pairwise distance
	ASPL      float64 // average shortest path length over ordered pairs s != t
	Connected bool    // false if any pair is unreachable
	Pairs     int64   // number of reachable ordered pairs counted in ASPL
}

// AllPairs computes diameter and average shortest path length by running a
// BFS from every vertex, fanned out across GOMAXPROCS workers. For the
// paper's sizes (<= 2048 switches) this completes in well under a second.
func (g *Graph) AllPairs() PathMetrics {
	if g.n == 0 {
		return PathMetrics{Connected: true}
	}
	type partial struct {
		diameter int32
		sum      int64
		pairs    int64
		discon   bool
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > g.n {
		workers = g.n
	}
	results := make([]partial, workers)
	var wg sync.WaitGroup
	nextSrc := make(chan int, workers)
	go func() {
		for s := 0; s < g.n; s++ {
			nextSrc <- s
		}
		close(nextSrc)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dist := make([]int32, g.n)
			queue := make([]int32, 0, g.n)
			var p partial
			for s := range nextSrc {
				g.bfsInto(s, dist, queue)
				for v, d := range dist {
					if v == s {
						continue
					}
					if d == Unreachable {
						p.discon = true
						continue
					}
					if d > p.diameter {
						p.diameter = d
					}
					p.sum += int64(d)
					p.pairs++
				}
			}
			results[w] = p
		}(w)
	}
	wg.Wait()
	var m PathMetrics
	m.Connected = true
	var sum int64
	for _, p := range results {
		if p.diameter > m.Diameter {
			m.Diameter = p.diameter
		}
		sum += p.sum
		m.Pairs += p.pairs
		if p.discon {
			m.Connected = false
		}
	}
	if m.Pairs > 0 {
		m.ASPL = float64(sum) / float64(m.Pairs)
	}
	return m
}

// Eccentricity returns the greatest finite distance from v to any other
// vertex, or Unreachable if some vertex cannot be reached.
func (g *Graph) Eccentricity(v int) int32 {
	dist := g.BFS(v)
	ecc := int32(0)
	for u, d := range dist {
		if u == v {
			continue
		}
		if d == Unreachable {
			return Unreachable
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}
