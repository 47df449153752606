package sim

import (
	"ndetect/internal/circuit"
	"ndetect/internal/engine"
)

// FaultCone is the precomputed transitive fanout cone of a fault site, used
// to run many 3-valued fault simulations of the same fault cheaply: the
// faulty machine only ever differs from the good machine inside the cone,
// so after one good-machine simulation the faulty pass re-evaluates only
// the cone and compares only the outputs the cone reaches. Nodes that feed
// none of those outputs are never evaluated at all. All passes run the
// compiled dual-rail program (engine.ExecTV) over topological slices of
// the node set.
type FaultCone struct {
	c        *circuit.Circuit
	prog     *engine.Program
	site     int
	order    []int // live fanout cone nodes (excluding the site) in topo order
	outputs  []int // primary output positions reachable from the site
	tfiOrder []int // fanin cone of the site (including it) in topo order
	rest     []int // live nodes outside the fanin cone, in topo order
}

// Compiled is a circuit's shared analysis program: one lowering serves any
// number of FaultCones, so callers building a cone per fault (Definition
// 2's checker) compile the circuit once instead of once per fault.
type Compiled struct {
	c    *circuit.Circuit
	prog *engine.Program
}

// CompileCircuit lowers the circuit once for 3-valued fault-cone analysis.
func CompileCircuit(c *circuit.Circuit) *Compiled {
	return &Compiled{c: c, prog: engine.CompileAll(c)}
}

// NewFaultCone precomputes the fanout and fanin cones of the given node
// against the shared compiled program. Outside the site's fanin cone it
// keeps only live nodes, those in the fanin of an output the site
// reaches: the faulty pass compares only those outputs, and every node it
// reads — cone nodes and their side inputs alike — lies in their fanin,
// so skipping the rest changes no result.
func (p *Compiled) NewFaultCone(site int) *FaultCone {
	c := p.c
	inCone := c.TransitiveFanout(site)
	tfi := c.TransitiveFanin(site)
	fc := &FaultCone{c: c, prog: p.prog, site: site}
	live := make([]bool, c.NumNodes())
	for i, o := range c.Outputs {
		if inCone[o] {
			fc.outputs = append(fc.outputs, i)
			live[o] = true
		}
	}
	topo := c.TopoOrder()
	for k := len(topo) - 1; k >= 0; k-- {
		if id := topo[k]; live[id] {
			for _, f := range c.Node(id).Fanin {
				live[f] = true
			}
		}
	}
	for _, id := range topo {
		switch {
		case tfi[id]:
			fc.tfiOrder = append(fc.tfiOrder, id)
		case live[id]:
			if inCone[id] {
				fc.order = append(fc.order, id)
			}
			fc.rest = append(fc.rest, id)
		}
	}
	return fc
}
