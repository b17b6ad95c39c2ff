package chaos

import (
	"fmt"

	"dsnet/internal/catalog"
	"dsnet/internal/multipath"
)

// Arm selects the k-shortest-path spraying router for a target: K
// edge-disjoint paths per pair under Selector (see ArmMultipath).
type Arm struct {
	K        int
	Selector multipath.Selector
}

// ArmMultipath rebuilds the target around the k-shortest-path spraying
// router: same graph, same monitors and TTL bound, but every packet now
// source-routes over the sprayed path set with the VC0 up*/down* escape
// underneath. The returned target's name carries the scheme so campaign
// cell keys (and repro artifacts shrunk from them) never collide with
// the single-path target's cache entries.
func ArmMultipath(t Target, k int, sel multipath.Selector, vcs int, seed uint64) (Target, error) {
	if t.Graph == nil {
		return t, fmt.Errorf("chaos: cannot arm multipath on target %q without a graph", t.Name)
	}
	name := catalog.MultipathName(sel, k)
	mk, err := catalog.Router(name, catalog.Fabric{Graph: t.Graph}, vcs, seed)
	if err != nil {
		return t, err
	}
	armed := t
	armed.Name = t.Name + "+" + name
	armed.NewRouter = mk
	return armed, nil
}
