package sim

import (
	"ndetect/internal/circuit"
	"ndetect/internal/engine"
)

// FaultCone is the precomputed transitive fanout cone of a fault site, used
// to run many 3-valued fault simulations of the same fault cheaply: the
// faulty machine only ever differs from the good machine inside the cone,
// so after one good-machine simulation the faulty pass re-evaluates only
// the cone and compares only the outputs the cone reaches. All passes run
// the compiled dual-rail program (engine.ExecTV) over topological slices of
// the node set.
type FaultCone struct {
	c        *circuit.Circuit
	prog     *engine.Program
	site     int
	order    []int // fanout cone nodes (excluding the site) in topo order
	outputs  []int // primary output positions reachable from the site
	tfiOrder []int // fanin cone of the site (including it) in topo order
	rest     []int // nodes outside the fanin cone, in topo order
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

// NewFaultCone compiles the circuit and precomputes the fanout and fanin
// cones of the given node. Callers creating cones for many faults of the
// same circuit should go through CompileCircuit.
func NewFaultCone(c *circuit.Circuit, site int) *FaultCone {
	return CompileCircuit(c).NewFaultCone(site)
}

// NewFaultCone precomputes the fanout and fanin cones of the given node
// against the shared compiled program.
func (p *Compiled) NewFaultCone(site int) *FaultCone {
	c := p.c
	inCone := c.TransitiveFanout(site)
	tfi := c.TransitiveFanin(site)
	fc := &FaultCone{c: c, prog: p.prog, site: site}
	for _, id := range c.TopoOrder() {
		if inCone[id] && id != site {
			fc.order = append(fc.order, id)
		}
		if tfi[id] {
			fc.tfiOrder = append(fc.tfiOrder, id)
		} else {
			fc.rest = append(fc.rest, id)
		}
	}
	for i, o := range c.Outputs {
		if inCone[o] {
			fc.outputs = append(fc.outputs, i)
		}
	}
	return fc
}

// DetectsTV reports whether the (possibly partial) pattern detects the
// stuck-at fault (site stuck at stuckVal) under 3-valued simulation. It is
// equivalent to the scalar reference DetectsTV in the package tests, staged
// for speed: the
// good machine is first evaluated only on the site's fanin cone — if the
// site is not definitely excited no detection is possible (in Kleene logic
// the faulty machine refines the good one whenever the site's good value is
// X or equals the stuck value, so definite outputs cannot change) — and
// only then completed, with the faulty pass re-simulating just the fanout
// cone. It is DetectsTVBatch at batch size one.
func (fc *FaultCone) DetectsTV(pattern []TV, stuckVal bool) bool {
	if len(pattern) != fc.c.NumInputs() {
		panic("sim: FaultCone pattern length mismatch")
	}
	if len(fc.outputs) == 0 {
		return false // fault site cannot reach any output
	}
	return fc.DetectsTVBatch([][]TV{pattern}, stuckVal)[0]
}
