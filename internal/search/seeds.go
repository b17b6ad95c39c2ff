package search

import (
	"fmt"
	"math"
	"math/rand/v2"

	"dsnet/internal/catalog"
	"dsnet/internal/core"
)

// Constraints bound the design space: n switches with at most
// MaxDegree ports each (the base ring consumes 2). MaxDegree <= 0
// lifts the port budget.
type Constraints struct {
	N         int `json:"n"`
	MaxDegree int `json:"max_degree"`
}

// Seeded is one named starting candidate.
type Seeded struct {
	Name   string `json:"name"`
	Genome Genome `json:"genome"`
}

// SeedKleinberg places q Kleinberg-style shortcuts per switch on the
// ring: the clockwise span d of each shortcut is drawn with
// P(d) proportional to d^-alpha over d in [2, n/2] (alpha = 1 is
// Kleinberg's optimum for a 1-D lattice). Draws that would collide
// with an existing edge or push an endpoint past the port budget are
// skipped after bounded retries, so the genome is valid by
// construction. Deterministic for a given seed.
func SeedKleinberg(c Constraints, q int, alpha float64, seed uint64) (Genome, error) {
	n := c.N
	if n < 6 {
		return Genome{}, fmt.Errorf("search: Kleinberg seed needs n >= 6, got %d", n)
	}
	if q < 1 {
		return Genome{}, fmt.Errorf("search: Kleinberg seed needs q >= 1, got %d", q)
	}
	rng := rand.New(rand.NewPCG(seed, 0x6b6c65696e626572)) // "kleinber"
	s := newSpanSampler(n, alpha)
	b := newEditBuffer(Genome{N: n}, c)
	for u := 0; u < n; u++ {
		for m := 0; m < q; m++ {
			for attempt := 0; attempt < 16; attempt++ {
				d := s.draw(rng)
				v := (u + d) % n
				if b.canAdd(int32(u), int32(v)) {
					b.add(int32(u), int32(v))
					break
				}
			}
		}
	}
	return b.genome(), nil
}

// SeedCirculant builds a multiplicative circulant (Shchegoleva et
// al.): chords at geometric spans s, s^2, s^3, ... around the ring,
// taking stride classes while the port budget allows (each full class
// costs 2 ports per switch).
func SeedCirculant(c Constraints, s int) (Genome, error) {
	n := c.N
	if n < 6 {
		return Genome{}, fmt.Errorf("search: circulant seed needs n >= 6, got %d", n)
	}
	if s < 2 {
		return Genome{}, fmt.Errorf("search: circulant seed needs stride base >= 2, got %d", s)
	}
	classes := -1 // unbounded budget: take every geometric span
	if c.MaxDegree > 0 {
		classes = (c.MaxDegree - 2) / 2
	}
	var extra []Gene
	taken := 0
	for span := s; span <= n/2 && (classes < 0 || taken < classes); span *= s {
		for i := 0; i < n; i++ {
			j := (i + span) % n
			u, v := int32(i), int32(j)
			if u > v {
				u, v = v, u
			}
			extra = append(extra, Gene{U: u, V: v})
		}
		taken++
	}
	return NewGenome(n, extra), nil
}

// SeedPool assembles the named starting population: the paper's own
// families (DSN-x ladders, DSN-D short links, DLN loops, the RANDOM
// DLN-2-2) plus Kleinberg-alpha ring distributions and multiplicative
// circulants. Seeds that violate the constraints (port budget) are
// silently dropped, so the pool is valid by construction; the list
// order and contents are deterministic for a given seed.
func SeedPool(c Constraints, seed uint64) ([]Seeded, error) {
	n := c.N
	if n < 8 {
		return nil, fmt.Errorf("search: seed pool needs n >= 8, got %d", n)
	}
	var pool []Seeded
	add := func(name string, g Genome, err error) {
		if err != nil {
			return // family undefined at this n: skip, the pool has others
		}
		if g.Validate(c.MaxDegree) != nil {
			return // over the port budget at this n: not a legal start
		}
		pool = append(pool, Seeded{Name: name, Genome: g})
	}
	// The paper's families come from the fabric catalog: the DSN-x
	// ladders, DSN-D-k, the deterministic DLN-x loops and RANDOM.
	fromCatalog := func(name string, s catalog.Spec) {
		f, err := catalog.Build(s)
		if err != nil {
			return
		}
		add(name, FromGraph(f.Graph), nil)
	}
	for x := 1; x <= core.CeilLog2(n)-1; x++ {
		fromCatalog(fmt.Sprintf("dsn-%d", x), catalog.Spec{Name: "dsn", N: n, X: x})
	}
	for _, k := range []int{2, 3} {
		fromCatalog(fmt.Sprintf("dsn-d-%d", k), catalog.Spec{Name: "dsn-d", N: n, X: k})
	}
	for x := 3; x <= 5; x++ {
		fromCatalog(fmt.Sprintf("dln-%d", x), catalog.Spec{Name: "dln", N: n, X: x})
	}
	if n%2 == 0 {
		fromCatalog("dln-2-2", catalog.Spec{Name: "random", N: n, Seed: seed})
	}
	for i, alpha := range []float64{1.0, 1.5, 2.0} {
		g, err := SeedKleinberg(c, 1, alpha, seed+uint64(i))
		add(fmt.Sprintf("kleinberg-a%.1f", alpha), g, err)
	}
	for _, s := range []int{2, 3} {
		g, err := SeedCirculant(c, s)
		add(fmt.Sprintf("circulant-%d", s), g, err)
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("search: no seed fits n=%d degree<=%d", n, c.MaxDegree)
	}
	return pool, nil
}

// spanSampler draws clockwise ring spans d in [2, n/2] with
// P(d) proportional to d^-alpha by inverse-CDF over the precomputed
// cumulative weights.
type spanSampler struct {
	cum []float64 // cum[i] covers span i+2
}

func newSpanSampler(n int, alpha float64) *spanSampler {
	max := n / 2
	cum := make([]float64, max-1)
	total := 0.0
	for d := 2; d <= max; d++ {
		total += math.Pow(float64(d), -alpha)
		cum[d-2] = total
	}
	return &spanSampler{cum: cum}
}

func (s *spanSampler) draw(rng *rand.Rand) int {
	x := rng.Float64() * s.cum[len(s.cum)-1]
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 2
}
