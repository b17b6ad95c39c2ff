package topology

import (
	"fmt"

	"dsnet/internal/graph"
)

// Torus is a k-ary n-dimensional torus or mesh. Switch IDs are row-major
// over Dims: id = ((c[0]*Dims[1]) + c[1])*Dims[2] + ... .
type Torus struct {
	Dims []int // extent of each dimension, all >= 2
	Wrap bool  // true for torus, false for mesh
	g    *graph.Graph
}

// NewTorus builds a torus (wrap = true) or mesh (wrap = false) with the
// given dimension extents. Every extent must be >= 2; an extent of 2 with
// wrap would create parallel edges, so wrap links are skipped there.
func NewTorus(dims []int, wrap bool) (*Torus, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("topology: torus needs at least one dimension")
	}
	n := 1
	for _, d := range dims {
		if d < 2 {
			return nil, fmt.Errorf("topology: torus dimension extent %d < 2", d)
		}
		n *= d
	}
	t := &Torus{Dims: append([]int(nil), dims...), Wrap: wrap, g: graph.New(n)}
	coord := make([]int, len(dims))
	for id := 0; id < n; id++ {
		t.coordInto(id, coord)
		for dim := range dims {
			next := coord[dim] + 1
			if next < dims[dim] {
				coord[dim] = next
				t.g.AddEdge(id, t.ID(coord), graph.KindTorus)
				coord[dim] = next - 1
			} else if wrap && dims[dim] > 2 {
				coord[dim] = 0
				t.g.AddEdge(id, t.ID(coord), graph.KindTorus)
				coord[dim] = next - 1
			}
		}
	}
	return t, nil
}

// Torus2D builds a rows x cols torus (the paper's degree-4 baseline).
func Torus2D(rows, cols int) (*Torus, error) { return NewTorus([]int{rows, cols}, true) }

// Torus2DFor builds a near-square 2-D torus with exactly n switches.
func Torus2DFor(n int) (*Torus, error) {
	r, c, err := NearSquareDims(n)
	if err != nil {
		return nil, err
	}
	if r < 2 {
		return nil, fmt.Errorf("topology: %d switches cannot form a 2-D torus (prime or too small)", n)
	}
	return Torus2D(r, c)
}

// Torus3D builds an a x b x c torus (degree-6 baseline).
func Torus3D(a, b, c int) (*Torus, error) { return NewTorus([]int{a, b, c}, true) }

// Mesh2D builds a rows x cols mesh (no wraparound).
func Mesh2D(rows, cols int) (*Torus, error) { return NewTorus([]int{rows, cols}, false) }

// Graph returns the underlying graph (owned by the Torus).
func (t *Torus) Graph() *graph.Graph { return t.g }

// N returns the switch count.
func (t *Torus) N() int { return t.g.N() }

// Coord returns the coordinates of switch id.
func (t *Torus) Coord(id int) []int {
	c := make([]int, len(t.Dims))
	t.coordInto(id, c)
	return c
}

func (t *Torus) coordInto(id int, c []int) {
	for dim := len(t.Dims) - 1; dim >= 0; dim-- {
		c[dim] = id % t.Dims[dim]
		id /= t.Dims[dim]
	}
}

// CoordOf returns the coordinate of switch id along one dimension,
// Coord(id)[dim] without the slice.
func (t *Torus) CoordOf(id, dim int) int { return id / t.stride(dim) % t.Dims[dim] }

// WithCoord returns the switch whose coordinates equal id's except along
// dim, where it is c.
func (t *Torus) WithCoord(id, dim, c int) int {
	return id + (c-t.CoordOf(id, dim))*t.stride(dim)
}

// stride returns the ID distance between neighbors along dim.
func (t *Torus) stride(dim int) int {
	s := 1
	for _, k := range t.Dims[dim+1:] {
		s *= k
	}
	return s
}

// ID returns the switch ID at the given coordinates.
func (t *Torus) ID(c []int) int {
	id := 0
	for dim, v := range c {
		id = id*t.Dims[dim] + v
	}
	return id
}

// DimDist returns the signed minimal displacement from a to b along one
// dimension of extent k, honoring wraparound for tori. The result is in
// (-k/2, k/2] for tori and b-a for meshes.
func (t *Torus) DimDist(a, b, dim int) int {
	d := b - a
	if !t.Wrap {
		return d
	}
	k := t.Dims[dim]
	d = ((d % k) + k) % k // now 0..k-1 (clockwise)
	if 2*d > k {
		d -= k // the counterclockwise way is shorter
	}
	return d
}

// HopDist returns the minimal hop distance between switches a and b.
func (t *Torus) HopDist(a, b int) int {
	total := 0
	for dim := range t.Dims {
		d := t.DimDist(t.CoordOf(a, dim), t.CoordOf(b, dim), dim)
		if d < 0 {
			d = -d
		}
		total += d
	}
	return total
}

// String describes the instance.
func (t *Torus) String() string {
	kind := "torus"
	if !t.Wrap {
		kind = "mesh"
	}
	return fmt.Sprintf("%d-D %s %v", len(t.Dims), kind, t.Dims)
}
