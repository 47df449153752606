package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"ndetect/internal/circuit"
	"ndetect/internal/fault"
)

func TestTVOperators(t *testing.T) {
	if tvNot(Zero) != One || tvNot(One) != Zero || tvNot(X) != X {
		t.Fatal("tvNot wrong")
	}
	// AND: controlled by 0.
	if tvAnd(Zero, X) != Zero || tvAnd(X, Zero) != Zero {
		t.Fatal("tvAnd: 0 must dominate")
	}
	if tvAnd(One, X) != X || tvAnd(One, One) != One {
		t.Fatal("tvAnd wrong")
	}
	// OR: controlled by 1.
	if tvOr(One, X) != One || tvOr(X, One) != One {
		t.Fatal("tvOr: 1 must dominate")
	}
	if tvOr(Zero, X) != X || tvOr(Zero, Zero) != Zero {
		t.Fatal("tvOr wrong")
	}
	// XOR: X poisons.
	if tvXor(X, One) != X || tvXor(One, Zero) != One || tvXor(One, One) != Zero {
		t.Fatal("tvXor wrong")
	}
	if Zero.String() != "0" || One.String() != "1" || X.String() != "X" {
		t.Fatal("String wrong")
	}
}

func TestCommonTest(t *testing.T) {
	// ti=0110 (6), tj=0111 (7) over 4 inputs: common = 011X.
	p := CommonTest(6, 7, 4)
	want := []TV{Zero, One, One, X}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("CommonTest(6,7) = %v, want %v", p, want)
		}
	}
	// Identical tests have no X.
	p = CommonTest(5, 5, 4)
	for i, v := range p {
		if v == X {
			t.Fatalf("CommonTest(5,5)[%d] = X", i)
		}
	}
	// Complementary tests are all X.
	p = CommonTest(0b1010, 0b0101, 4)
	for i, v := range p {
		if v != X {
			t.Fatalf("CommonTest(1010,0101)[%d] = %v, want X", i, v)
		}
	}
}

func TestFullTest(t *testing.T) {
	p := FullTest(6, 4)
	want := []TV{Zero, One, One, Zero}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("FullTest(6) = %v, want %v", p, want)
		}
	}
}

// TestTVConservativeness: a 3-valued simulation result that is definite must
// agree with every completion of the X bits.
func TestTVConservativeness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		c := randomCircuit(t, rng, 4, 10+rng.Intn(10))
		m := c.NumInputs()
		for iter := 0; iter < 20; iter++ {
			pattern := make([]TV, m)
			for i := range pattern {
				pattern[i] = TV(rng.Intn(3))
			}
			vals := SimulateTV(c, pattern, -1, X)
			// Enumerate completions.
			xPos := []int{}
			base := uint64(0)
			for i, p := range pattern {
				switch p {
				case One:
					base = circuit.SetVectorBit(base, i, m, true)
				case X:
					xPos = append(xPos, i)
				}
			}
			for comp := 0; comp < 1<<uint(len(xPos)); comp++ {
				v := base
				for k, pos := range xPos {
					v = circuit.SetVectorBit(v, pos, m, (comp>>uint(k))&1 == 1)
				}
				full := c.Eval(v)
				for id := range c.Nodes {
					if vals[id] == X {
						continue
					}
					want := One
					if !full[id] {
						want = Zero
					}
					if vals[id] != want {
						t.Fatalf("trial %d: node %d definite %v but completion %d gives %v",
							trial, id, vals[id], v, want)
					}
				}
			}
		}
	}
}

// TestDetectsTVAgainstExhaustive: on fully specified patterns, DetectsTV must
// agree exactly with membership in the exhaustive T-set.
func TestDetectsTVFullySpecified(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		c := randomCircuit(t, rng, 4, 8+rng.Intn(10))
		e, err := Run(c)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		faults := fault.AllStuckAt(c)
		tsets := e.StuckAtTSets(faults)
		for fi, f := range faults {
			for v := 0; v < c.VectorSpaceSize(); v++ {
				got := DetectsTV(c, FullTest(uint64(v), c.NumInputs()), f)
				want := tsets[fi].Contains(v)
				if got != want {
					t.Fatalf("trial %d fault %s v=%d: DetectsTV=%v, T-set=%v",
						trial, f.Name(c), v, got, want)
				}
			}
		}
	}
}

// TestDetectsTVPartialIsConservative: if a partial pattern detects f under
// 3-valued simulation, then every completion of it detects f.
func TestDetectsTVPartialIsConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := randomCircuit(t, rng, 5, 15)
	e, err := Run(c)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	faults := fault.AllStuckAt(c)
	tsets := e.StuckAtTSets(faults)
	m := c.NumInputs()
	for trial := 0; trial < 300; trial++ {
		ti := uint64(rng.Intn(c.VectorSpaceSize()))
		tj := uint64(rng.Intn(c.VectorSpaceSize()))
		p := CommonTest(ti, tj, m)
		fi := rng.Intn(len(faults))
		if !DetectsTV(c, p, faults[fi]) {
			continue
		}
		// Every completion must be in T(f). Completions of p include ti, tj.
		if !tsets[fi].Contains(int(ti)) || !tsets[fi].Contains(int(tj)) {
			t.Fatalf("t_ij detects %s but an endpoint does not (ti=%d tj=%d)",
				faults[fi].Name(c), ti, tj)
		}
	}
}

// The scalar three-valued reference: the obviously-correct definitions
// the staged cone simulation (FaultCone.DetectsPairs, and the pattern-list
// forms in tvbatch_test.go) is checked against. Production code uses
// DetectsPairs only.

// TV is a ternary logic value of the reference's partial-vector
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

func tvNot(a TV) TV {
	switch a {
	case Zero:
		return One
	case One:
		return Zero
	}
	return X
}

func tvAnd(a, b TV) TV {
	if a == Zero || b == Zero {
		return Zero
	}
	if a == One && b == One {
		return One
	}
	return X
}

func tvOr(a, b TV) TV {
	if a == One || b == One {
		return One
	}
	if a == Zero && b == Zero {
		return Zero
	}
	return X
}

func tvXor(a, b TV) TV {
	if a == X || b == X {
		return X
	}
	if a == b {
		return Zero
	}
	return One
}

// FullTest renders a fully specified vector as a TV pattern.
func FullTest(t uint64, numInputs int) []TV {
	p := make([]TV, numInputs)
	for i := 0; i < numInputs; i++ {
		if circuit.VectorBit(t, i, numInputs) {
			p[i] = One
		} else {
			p[i] = Zero
		}
	}
	return p
}

// SimulateTV runs 3-valued simulation of the pattern (indexed by input
// position) with an optional stuck-at fault injected: if faultNode ≥ 0 that
// node is forced to faultVal. It returns all node values.
func SimulateTV(c *circuit.Circuit, pattern []TV, faultNode int, faultVal TV) []TV {
	if len(pattern) != c.NumInputs() {
		panic(fmt.Sprintf("sim: pattern length %d, want %d", len(pattern), c.NumInputs()))
	}
	vals := make([]TV, c.NumNodes())
	for i, id := range c.Inputs {
		vals[id] = pattern[i]
	}
	// A fault on an input node is handled like any other: inputs appear in
	// TopoOrder, so the override below applies uniformly.
	for _, id := range c.TopoOrder() {
		if id == faultNode {
			vals[id] = faultVal
			continue
		}
		n := c.Node(id)
		switch n.Kind {
		case circuit.Input:
			// assigned above
		case circuit.Const0:
			vals[id] = Zero
		case circuit.Const1:
			vals[id] = One
		case circuit.Buf, circuit.Branch:
			vals[id] = vals[n.Fanin[0]]
		case circuit.Not:
			vals[id] = tvNot(vals[n.Fanin[0]])
		case circuit.And, circuit.Nand:
			v := One
			for _, f := range n.Fanin {
				v = tvAnd(v, vals[f])
			}
			if n.Kind == circuit.Nand {
				v = tvNot(v)
			}
			vals[id] = v
		case circuit.Or, circuit.Nor:
			v := Zero
			for _, f := range n.Fanin {
				v = tvOr(v, vals[f])
			}
			if n.Kind == circuit.Nor {
				v = tvNot(v)
			}
			vals[id] = v
		case circuit.Xor, circuit.Xnor:
			v := Zero
			for _, f := range n.Fanin {
				v = tvXor(v, vals[f])
			}
			if n.Kind == circuit.Xnor {
				v = tvNot(v)
			}
			vals[id] = v
		}
	}
	return vals
}

// DetectsTV reports whether the (possibly partial) pattern detects the
// stuck-at fault under 3-valued simulation: some primary output must take
// definite, differing values in the good and faulty circuits. This is the
// check Definition 2 performs on t_ij: conservative in the usual 3-valued
// sense (an X at an output never counts as a detection).
func DetectsTV(c *circuit.Circuit, pattern []TV, f fault.StuckAt) bool {
	good := SimulateTV(c, pattern, -1, X)
	fv := Zero
	if f.Value {
		fv = One
	}
	// Activation in the 3-valued sense: if the good value at the fault site
	// equals the stuck value the fault is definitely not excited; if it is
	// X the faulty-machine output difference check below still applies
	// (both simulations run; an output difference requires definite values,
	// which cannot happen without definite excitation on some path).
	bad := SimulateTV(c, pattern, f.Node, fv)
	for _, o := range c.Outputs {
		if good[o] != X && bad[o] != X && good[o] != bad[o] {
			return true
		}
	}
	return false
}
