package sim

import "ndetect/internal/circuit"

// TV is a ternary logic value used by Definition 2's partial-vector
// simulation.
type TV uint8

// The three logic values.
const (
	Zero TV = iota
	One
	X
)

// String renders the value as 0, 1 or X.
func (t TV) String() string {
	switch t {
	case Zero:
		return "0"
	case One:
		return "1"
	default:
		return "X"
	}
}

// CommonTest builds the paper's t_ij: the partial test specified in the bits
// where the fully specified tests ti and tj agree, and X elsewhere.
// numInputs uses the same MSB-first convention as circuit.VectorBit.
func CommonTest(ti, tj uint64, numInputs int) []TV {
	p := make([]TV, numInputs)
	for i := 0; i < numInputs; i++ {
		bi := circuit.VectorBit(ti, i, numInputs)
		bj := circuit.VectorBit(tj, i, numInputs)
		switch {
		case bi != bj:
			p[i] = X
		case bi:
			p[i] = One
		default:
			p[i] = Zero
		}
	}
	return p
}
