// Package partition implements the workaround the paper's Section 4
// sketches for designs too large for exhaustive analysis: "one can
// partition a larger circuit into smaller subcircuits and apply the
// analysis to the subcircuits."
//
// The partitioner extracts output cones: each part is the transitive fanin
// cone of a group of primary outputs, greedily grown so the part's support
// (the primary inputs it depends on) stays within a configurable limit.
// Each part is a self-contained circuit that package ndetect can analyse
// exhaustively over its own (smaller) input space. The analysis driver
// (exp.AnalyzeCircuit's partitioned kind) runs the pipeline: Split here,
// the worst case of every part, and MergeNMin here.
//
// The per-part analysis is an approximation of the full-circuit analysis:
// a part sees only a projection of the input space (each part vector
// corresponds to many full vectors) and only its own outputs as observation
// points. Guarantees derived on a part are therefore conservative in
// observability (a fault may also be detectable through outputs outside the
// part) but optimistic in vector multiplicity. MergeNMin combines per-part
// results by taking the minimum nmin over the parts that see a fault, which
// matches the paper's intent of using the partitioned analysis "to evaluate
// the effectiveness of a chosen value of n".
package partition

import (
	"fmt"
	"sort"

	"ndetect/internal/circuit"
)

// Part is one subcircuit with its provenance.
type Part struct {
	Circuit *circuit.Circuit
	// Outputs are the original output positions this part covers.
	Outputs []int
	// Support are the original input positions the part depends on.
	Support []int
}

// DefaultMaxInputs is the per-part support bound used when Options leaves
// MaxInputs unset.
const DefaultMaxInputs = 16

// Options controls partitioning.
type Options struct {
	// MaxInputs bounds each part's support (default DefaultMaxInputs).
	MaxInputs int
}

// effectiveMaxInputs resolves the configured limit.
func (o Options) effectiveMaxInputs() int {
	if o.MaxInputs <= 0 {
		return DefaultMaxInputs
	}
	return o.MaxInputs
}

// Split partitions the circuit into output-cone parts. Outputs whose cones
// individually exceed MaxInputs are rejected with an error (no exhaustive
// analysis can cover them; a different decomposition would be needed).
func Split(c *circuit.Circuit, opts Options) ([]*Part, error) {
	maxIn := opts.effectiveMaxInputs()

	// Per output: the set of input positions in its cone.
	inputPos := make(map[int]int, len(c.Inputs))
	for i, id := range c.Inputs {
		inputPos[id] = i
	}
	type coneInfo struct {
		out     int
		support []int
	}
	cones := make([]coneInfo, 0, len(c.Outputs))
	for oi, oid := range c.Outputs {
		tfi := c.TransitiveFanin(oid)
		var sup []int
		for id, in := range tfi {
			if !in {
				continue
			}
			if p, ok := inputPos[id]; ok {
				sup = append(sup, p)
			}
		}
		sort.Ints(sup)
		if len(sup) > maxIn {
			return nil, fmt.Errorf("partition: output %s depends on %d inputs > limit %d",
				c.Node(oid).Name, len(sup), maxIn)
		}
		cones = append(cones, coneInfo{out: oi, support: sup})
	}

	// Greedy bin packing: order cones by decreasing support, place each
	// into the first part whose union support stays within the limit.
	sort.SliceStable(cones, func(a, b int) bool {
		return len(cones[a].support) > len(cones[b].support)
	})
	type bin struct {
		outs    []int
		support map[int]bool
	}
	var bins []*bin
	for _, cn := range cones {
		placed := false
		for _, b := range bins {
			union := len(b.support)
			for _, s := range cn.support {
				if !b.support[s] {
					union++
				}
			}
			if union <= maxIn {
				for _, s := range cn.support {
					b.support[s] = true
				}
				b.outs = append(b.outs, cn.out)
				placed = true
				break
			}
		}
		if !placed {
			nb := &bin{support: make(map[int]bool)}
			for _, s := range cn.support {
				nb.support[s] = true
			}
			nb.outs = []int{cn.out}
			bins = append(bins, nb)
		}
	}

	parts := make([]*Part, 0, len(bins))
	for _, b := range bins {
		sort.Ints(b.outs)
		p, err := Extract(c, b.outs)
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	return parts, nil
}

// Extract builds the subcircuit feeding the given output positions: the
// union of their fanin cones, with the original primary inputs in the cone
// as the part's inputs.
func Extract(c *circuit.Circuit, outputPositions []int) (*Part, error) {
	if len(outputPositions) == 0 {
		return nil, fmt.Errorf("partition: no outputs selected")
	}
	inCone := make([]bool, c.NumNodes())
	for _, oi := range outputPositions {
		if oi < 0 || oi >= len(c.Outputs) {
			return nil, fmt.Errorf("partition: output position %d out of range", oi)
		}
		for id, in := range c.TransitiveFanin(c.Outputs[oi]) {
			if in {
				inCone[id] = true
			}
		}
	}

	b := circuit.NewBuilder(fmt.Sprintf("%s.part", c.Name))
	var support []int

	// Emit inputs first, in original order.
	for pos, id := range c.Inputs {
		if inCone[id] {
			b.Input(c.Node(id).Name)
			support = append(support, pos)
		}
	}

	// stemName resolves a fanin reference through branch nodes, since the
	// builder re-normalizes fanout.
	var stemName func(id int) string
	stemName = func(id int) string {
		n := c.Node(id)
		if n.Kind == circuit.Branch {
			return stemName(n.Stem)
		}
		return n.Name
	}

	for _, id := range c.TopoOrder() {
		if !inCone[id] {
			continue
		}
		n := c.Node(id)
		switch n.Kind {
		case circuit.Input, circuit.Branch:
			continue
		case circuit.Const0:
			b.Const(n.Name, false)
		case circuit.Const1:
			b.Const(n.Name, true)
		default:
			fins := make([]string, len(n.Fanin))
			for i, f := range n.Fanin {
				fins[i] = stemName(f)
			}
			b.Gate(n.Kind, n.Name, fins...)
		}
	}
	for _, oi := range outputPositions {
		b.Output(stemName(c.Outputs[oi]))
	}
	sub, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &Part{Circuit: sub, Outputs: append([]int(nil), outputPositions...), Support: support}, nil
}

// MergeNMin combines per-part worst-case results keyed by a caller-chosen
// fault identity (e.g. the bridge's node-name pair): for a fault seen by
// several parts the smallest nmin wins, since a guarantee through any part
// is a guarantee overall.
// Iteration order over each per-part map is dead here: min is commutative
// and associative, so the merged map is identical for every traversal
// order. maporder does not scope package partition — nothing here encodes
// bytes; the driver sorts the merged names before it emits them.
func MergeNMin(perPart []map[string]int) map[string]int {
	out := make(map[string]int)
	for _, m := range perPart {
		for k, v := range m {
			if cur, ok := out[k]; !ok || v < cur {
				out[k] = v
			}
		}
	}
	return out
}
