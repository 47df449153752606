// Package fault defines the two fault universes of the paper:
//
//   - the target set F: collapsed single stuck-at faults (structural
//     equivalence collapsing), and
//   - the untargeted set G: four-way bridging faults between outputs of
//     multi-input gates, excluding feedback bridges.
package fault

import (
	"fmt"

	"ndetect/internal/circuit"
)

// StuckAt is a single stuck-at fault: line Node stuck at Value.
type StuckAt struct {
	Node  int
	Value bool
}

// Name renders the fault in the paper's l/a notation using the node name.
func (f StuckAt) Name(c *circuit.Circuit) string {
	return string(StuckAtProvider{}.AppendName(nil, c, StuckAtDescriptor(f)))
}

// AllStuckAt returns the uncollapsed stuck-at universe: two faults per node
// (every primary input, gate output, and fanout branch is a fault site;
// constants are excluded since half their faults are meaningless and the
// other half are modeled on their fanout).
func AllStuckAt(c *circuit.Circuit) []StuckAt {
	out := make([]StuckAt, 0, 2*c.NumNodes())
	for _, n := range c.Nodes {
		if n.Kind == circuit.Const0 || n.Kind == circuit.Const1 {
			continue
		}
		out = append(out, StuckAt{Node: n.ID, Value: false}, StuckAt{Node: n.ID, Value: true})
	}
	return out
}

// stuckAtUnion is the structural equivalence relation over stuck-at
// sites, site 2·node+value, as a union-find whose every class is rooted at
// its lowest site. The classical rules are applied:
//
//	AND : input s-a-0 ≡ output s-a-0     NAND: input s-a-0 ≡ output s-a-1
//	OR  : input s-a-1 ≡ output s-a-1     NOR : input s-a-1 ≡ output s-a-0
//	BUF : input s-a-v ≡ output s-a-v     NOT : input s-a-v ≡ output s-a-¬v
//
// Fanout stems and their branches are distinct sites (no equivalence across
// a fanout point), which the explicit Branch nodes enforce: a Branch node's
// fault is only ever merged downstream via its consuming gate's rule.
type stuckAtUnion []int

func site(node int, value bool) int {
	if value {
		return 2*node + 1
	}
	return 2 * node
}

func newStuckAtUnion(c *circuit.Circuit) stuckAtUnion {
	u := make(stuckAtUnion, 2*c.NumNodes())
	for i := range u {
		u[i] = i
	}
	for _, nd := range c.Nodes {
		switch nd.Kind {
		case circuit.And:
			for _, p := range nd.Fanin {
				u.union(site(p, false), site(nd.ID, false))
			}
		case circuit.Nand:
			for _, p := range nd.Fanin {
				u.union(site(p, false), site(nd.ID, true))
			}
		case circuit.Or:
			for _, p := range nd.Fanin {
				u.union(site(p, true), site(nd.ID, true))
			}
		case circuit.Nor:
			for _, p := range nd.Fanin {
				u.union(site(p, true), site(nd.ID, false))
			}
		case circuit.Buf:
			u.union(site(nd.Fanin[0], false), site(nd.ID, false))
			u.union(site(nd.Fanin[0], true), site(nd.ID, true))
		case circuit.Not:
			u.union(site(nd.Fanin[0], false), site(nd.ID, true))
			u.union(site(nd.Fanin[0], true), site(nd.ID, false))
		}
	}
	return u
}

func (u stuckAtUnion) find(x int) int {
	for u[x] != x {
		u[x] = u[u[x]]
		x = u[x]
	}
	return x
}

func (u stuckAtUnion) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra < rb {
		u[rb] = ra
	} else if rb < ra {
		u[ra] = rb
	}
}

// CollapseStuckAt returns one representative per structural equivalence
// class of the stuck-at universe (see stuckAtUnion for the rules). The
// representative of each class is its lowest (node ID, value) member on a
// non-constant node, making the result deterministic.
func CollapseStuckAt(c *circuit.Circuit) []StuckAt {
	u := newStuckAtUnion(c)
	var out []StuckAt
	for _, f := range AllStuckAt(c) {
		fid := site(f.Node, f.Value)
		if u.find(fid) == fid {
			out = append(out, f)
		} else {
			// The class representative might sit on a Const node, which
			// AllStuckAt excludes; adopt this fault instead.
			rep := u.find(fid)
			repNode := c.Node(rep / 2)
			if repNode.Kind == circuit.Const0 || repNode.Kind == circuit.Const1 {
				// Re-root the class at this fault.
				u[rep] = fid
				u[fid] = fid
				out = append(out, f)
			}
		}
	}
	return out
}

// ClassMap maps stuck-at sites onto a target list: the entry of the target
// in each site's structural equivalence class. Structurally equivalent
// faults have identical detection sets, so T(node/value) is the T-set of
// that target.
type ClassMap struct {
	target []int32 // by site 2·node+value; -1 where the class has no target
}

// StuckAtClasses builds the class map of c against a list of stuck-at
// target descriptors. Where a class holds several targets, the first in
// the list wins. Every fault site (every site AllStuckAt enumerates) must
// have a target in its class, or StuckAtClasses fails: the collapsed list
// CollapseStuckAt returns always covers them all.
func StuckAtClasses(c *circuit.Circuit, targets []Descriptor) (ClassMap, error) {
	u := newStuckAtUnion(c)
	byRoot := make([]int32, len(u))
	for i := range byRoot {
		byRoot[i] = -1
	}
	for i := len(targets) - 1; i >= 0; i-- {
		d := targets[i]
		if err := validNode(c, d.A); err != nil {
			return ClassMap{}, err
		}
		byRoot[u.find(site(int(d.A), d.V != 0))] = int32(i)
	}
	m := ClassMap{target: make([]int32, len(u))}
	for s := range m.target {
		m.target[s] = byRoot[u.find(s)]
	}
	for _, f := range AllStuckAt(c) {
		if m.target[site(f.Node, f.Value)] < 0 {
			return ClassMap{}, fmt.Errorf("fault: no target in the equivalence class of %s", f.Name(c))
		}
	}
	return m, nil
}

// Target returns the index, in the list the map was built against, of the
// target in the class of node stuck-at value. ok is false only for a site
// outside the map: a node out of range, or a constant node (not a fault
// site) whose class holds no target.
func (m ClassMap) Target(node int, value bool) (i int, ok bool) {
	if node < 0 || 2*node+1 >= len(m.target) {
		return 0, false
	}
	t := m.target[site(node, value)]
	return int(t), t >= 0
}

// CollapseRatio returns |collapsed| / |all| for diagnostics.
func CollapseRatio(c *circuit.Circuit) float64 {
	all := len(AllStuckAt(c))
	if all == 0 {
		return 1
	}
	return float64(len(CollapseStuckAt(c))) / float64(all)
}
