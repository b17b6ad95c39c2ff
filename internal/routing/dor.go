package routing

import (
	"fmt"

	"dsnet/internal/topology"
)

// DOR implements dimension-order routing on a torus or mesh: a packet
// corrects dimension 0 fully (taking the minimal ring direction), then
// dimension 1, and so on. This is the "simple routing logic" of classical
// low-degree topologies that the paper contrasts with topology-agnostic
// routing on random graphs.
type DOR struct {
	T *topology.Torus
}

// NewDOR wraps a torus with a dimension-order router.
func NewDOR(t *topology.Torus) *DOR { return &DOR{T: t} }

// NextHop returns the next switch from cur toward dst, or -1 if cur == dst.
func (d *DOR) NextHop(cur, dst int) int {
	if cur == dst {
		return -1
	}
	for dim := range d.T.Dims {
		from := d.T.CoordOf(cur, dim)
		delta := d.T.DimDist(from, d.T.CoordOf(dst, dim), dim)
		if delta == 0 {
			continue
		}
		k := d.T.Dims[dim]
		step := 1
		if delta < 0 {
			step = -1
		}
		return d.T.WithCoord(cur, dim, ((from+step)%k+k)%k)
	}
	return -1
}

// Path materializes the full dimension-order route from s to t.
func (d *DOR) Path(s, t int) ([]int, error) {
	path := []int{s}
	cur := s
	for cur != t {
		next := d.NextHop(cur, t)
		if next < 0 {
			return nil, fmt.Errorf("routing: DOR stalled at %d toward %d", cur, t)
		}
		cur = next
		path = append(path, cur)
		if len(path) > d.T.N() {
			return nil, fmt.Errorf("routing: DOR path %d->%d did not terminate", s, t)
		}
	}
	return path, nil
}

// PathLen returns the dimension-order route length in hops.
func (d *DOR) PathLen(s, t int) (int, error) {
	p, err := d.Path(s, t)
	if err != nil {
		return 0, err
	}
	return len(p) - 1, nil
}
