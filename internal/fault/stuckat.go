// Package fault defines the two fault universes of the paper:
//
//   - the target set F: collapsed single stuck-at faults (structural
//     equivalence collapsing), and
//   - the untargeted set G: four-way bridging faults between outputs of
//     multi-input gates, excluding feedback bridges.
package fault

import "ndetect/internal/circuit"

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

// CollapseStuckAt returns one representative per structural equivalence
// class of the stuck-at universe. The classical rules are applied:
//
//	AND : input s-a-0 ≡ output s-a-0     NAND: input s-a-0 ≡ output s-a-1
//	OR  : input s-a-1 ≡ output s-a-1     NOR : input s-a-1 ≡ output s-a-0
//	BUF : input s-a-v ≡ output s-a-v     NOT : input s-a-v ≡ output s-a-¬v
//
// Fanout stems and their branches are distinct sites (no equivalence across
// a fanout point), which the explicit Branch nodes enforce: a Branch node's
// fault is only ever merged downstream via its consuming gate's rule.
// The representative of each class is its lowest (node ID, value) member,
// making the result deterministic.
func CollapseStuckAt(c *circuit.Circuit) []StuckAt {
	n := c.NumNodes()
	parent := make([]int, 2*n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	id := func(node int, value bool) int {
		if value {
			return 2*node + 1
		}
		return 2 * node
	}

	for _, nd := range c.Nodes {
		switch nd.Kind {
		case circuit.And:
			for _, p := range nd.Fanin {
				union(id(p, false), id(nd.ID, false))
			}
		case circuit.Nand:
			for _, p := range nd.Fanin {
				union(id(p, false), id(nd.ID, true))
			}
		case circuit.Or:
			for _, p := range nd.Fanin {
				union(id(p, true), id(nd.ID, true))
			}
		case circuit.Nor:
			for _, p := range nd.Fanin {
				union(id(p, true), id(nd.ID, false))
			}
		case circuit.Buf:
			union(id(nd.Fanin[0], false), id(nd.ID, false))
			union(id(nd.Fanin[0], true), id(nd.ID, true))
		case circuit.Not:
			union(id(nd.Fanin[0], false), id(nd.ID, true))
			union(id(nd.Fanin[0], true), id(nd.ID, false))
		}
	}

	var out []StuckAt
	for _, f := range AllStuckAt(c) {
		fid := id(f.Node, f.Value)
		if find(fid) == fid {
			out = append(out, f)
		} else {
			// The class representative might sit on a Const node, which
			// AllStuckAt excludes; adopt this fault instead.
			rep := find(fid)
			repNode := c.Node(rep / 2)
			if repNode.Kind == circuit.Const0 || repNode.Kind == circuit.Const1 {
				// Re-root the class at this fault.
				parent[rep] = fid
				parent[fid] = fid
				out = append(out, f)
			}
		}
	}
	return out
}

// CollapseRatio returns |collapsed| / |all| for diagnostics.
func CollapseRatio(c *circuit.Circuit) float64 {
	all := len(AllStuckAt(c))
	if all == 0 {
		return 1
	}
	return float64(len(CollapseStuckAt(c))) / float64(all)
}
