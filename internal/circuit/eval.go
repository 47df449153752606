package circuit

import "fmt"

// Eval computes all node values for a single input vector, returning a slice
// indexed by node ID. The vector's bit i (LSB-first... see VectorBit) supplies
// input i in declaration order. Eval is the reference single-vector
// evaluator; the bit-parallel simulator in package sim is the fast path and
// is cross-checked against Eval in tests.
func (c *Circuit) Eval(vector uint64) []bool {
	vals := make([]bool, len(c.Nodes))
	c.EvalInto(vector, vals)
	return vals
}

// Force holds a node at a value during EvalInto.
type Force struct {
	Node  int
	Value bool
}

// EvalInto is Eval writing into a caller-provided slice of length NumNodes,
// with every node in forced held at its value: the node's own function is
// not evaluated, so its consumers see the forced value while its fanin does
// not feed it. Forcing several nodes at once plays out masking between them
// exactly as in the faulty machine.
func (c *Circuit) EvalInto(vector uint64, vals []bool, forced ...Force) {
	if len(vals) != len(c.Nodes) {
		panic(fmt.Sprintf("circuit: EvalInto buffer length %d, want %d", len(vals), len(c.Nodes)))
	}
	for i, id := range c.Inputs {
		vals[id] = VectorBit(vector, i, len(c.Inputs))
	}
next:
	for _, id := range c.order {
		for _, f := range forced {
			if f.Node == id {
				vals[id] = f.Value
				continue next
			}
		}
		n := c.Nodes[id]
		k := n.Kind
		switch k {
		case Input:
			// set above
		case Const0:
			vals[id] = false
		case Const1:
			vals[id] = true
		case Buf, Branch:
			vals[id] = vals[n.Fanin[0]]
		case Not:
			vals[id] = !vals[n.Fanin[0]]
		case And, Nand:
			v := true
			for _, f := range n.Fanin {
				if !vals[f] {
					v = false
					break
				}
			}
			vals[id] = v != (k == Nand)
		case Or, Nor:
			v := false
			for _, f := range n.Fanin {
				if vals[f] {
					v = true
					break
				}
			}
			vals[id] = v != (k == Nor)
		case Xor, Xnor:
			v := false
			for _, f := range n.Fanin {
				v = v != vals[f]
			}
			vals[id] = v != (k == Xnor)
		default:
			panic(fmt.Sprintf("circuit: unknown kind %v", k))
		}
	}
}

// VectorBit extracts the value of input index (0-based, in declaration order)
// from the decimal representation of an input vector with numInputs inputs.
//
// The paper writes vectors as decimal numbers whose most significant bit is
// the first input: for the 4-input example circuit, vector 6 = 0110 assigns
// input 1 ← 0, input 2 ← 1, input 3 ← 1, input 4 ← 0. VectorBit follows that
// convention: input 0 is the MSB.
func VectorBit(vector uint64, index, numInputs int) bool {
	shift := uint(numInputs - 1 - index)
	return (vector>>shift)&1 == 1
}

// SetVectorBit returns vector with the value of input index set to v, using
// the same MSB-first convention as VectorBit.
func SetVectorBit(vector uint64, index, numInputs int, v bool) uint64 {
	shift := uint(numInputs - 1 - index)
	if v {
		return vector | 1<<shift
	}
	return vector &^ (1 << shift)
}

// OutputsOf extracts the primary output values from a full node-value slice.
func (c *Circuit) OutputsOf(vals []bool) []bool {
	out := make([]bool, len(c.Outputs))
	for i, o := range c.Outputs {
		out[i] = vals[o]
	}
	return out
}
