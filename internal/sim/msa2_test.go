package sim

import (
	"testing"

	"ndetect/internal/circuit"
	"ndetect/internal/fault"
)

// evalForced is a test-local double-fault reference evaluator: circuit.Eval
// with the nodes in forced overridden to their stuck values, so masking
// between the two sites plays out exactly as in the real faulty machine.
func evalForced(c *circuit.Circuit, vector uint64, forced map[int]bool) []bool {
	vals := make([]bool, c.NumNodes())
	for i, id := range c.Inputs {
		vals[id] = circuit.VectorBit(vector, i, c.NumInputs())
	}
	for _, id := range c.TopoOrder() {
		if fv, ok := forced[id]; ok {
			vals[id] = fv
			continue
		}
		n := c.Node(id)
		switch n.Kind {
		case circuit.Input:
			// set above
		case circuit.Const0:
			vals[id] = false
		case circuit.Const1:
			vals[id] = true
		case circuit.Buf, circuit.Branch:
			vals[id] = vals[n.Fanin[0]]
		case circuit.Not:
			vals[id] = !vals[n.Fanin[0]]
		case circuit.And, circuit.Nand:
			v := true
			for _, f := range n.Fanin {
				v = v && vals[f]
			}
			vals[id] = v != (n.Kind == circuit.Nand)
		case circuit.Or, circuit.Nor:
			v := false
			for _, f := range n.Fanin {
				v = v || vals[f]
			}
			vals[id] = v != (n.Kind == circuit.Nor)
		case circuit.Xor, circuit.Xnor:
			v := false
			for _, f := range n.Fanin {
				v = v != vals[f]
			}
			vals[id] = v != (n.Kind == circuit.Xnor)
		}
	}
	return vals
}

// TestMSA2TSetsMatchNaive cross-checks the forced-cone pair builder against
// the reference evaluator, vector by vector: v detects the double stuck-at
// fault {A/V&1, B/V>>1} iff evaluating with both sites forced flips some
// primary output. This is exactly the masking-aware semantics (one fault
// can block the other's effect), so any single-fault shortcut in the
// builder would fail here.
func TestMSA2TSetsMatchNaive(t *testing.T) {
	c := embeddedCircuit(t, "c17")
	m, tT, uT, kept := buildModelTSets(t, c, "msa2")
	size := c.VectorSpaceSize()

	good := make([][]bool, size)
	for v := 0; v < size; v++ {
		good[v] = c.Eval(uint64(v))
	}

	keptIdx := make(map[fault.Descriptor]int, len(kept))
	for i, d := range kept {
		keptIdx[d] = i
	}
	for _, d := range fault.EnumerateSet(m, c, fault.UntargetedSet) {
		forced := map[int]bool{int(d.A): d.V&1 != 0, int(d.B): d.V&2 != 0}
		fname := string(m.Provider(fault.UntargetedSet).AppendName(nil, c, d))
		i, isKept := keptIdx[d]
		detectable := false
		for v := 0; v < size; v++ {
			bad := evalForced(c, uint64(v), forced)
			want := false
			for _, o := range c.Outputs {
				if good[v][o] != bad[o] {
					want = true
					break
				}
			}
			detectable = detectable || want
			switch {
			case isKept:
				if got := uT[i].Contains(v); got != want {
					t.Fatalf("%s: vector %d: builder says %v, reference says %v", fname, v, got, want)
				}
			case want:
				t.Fatalf("%s: dropped as undetectable, but reference detects it at vector %d", fname, v)
			}
		}
		if isKept && !detectable {
			t.Errorf("%s: kept, but reference finds no detecting vector", fname)
		}
	}

	// Targets are the plain collapsed stuck-at sets over the single-vector
	// space, identical to the default model's.
	targets := fault.EnumerateSet(m, c, fault.TargetSet)
	if len(tT) != len(targets) {
		t.Fatalf("got %d target T-sets, want %d", len(tT), len(targets))
	}
	for i, d := range targets {
		naive := NaiveStuckAtTSet(c, d.StuckAt())
		for v := 0; v < size; v++ {
			if tT[i].Contains(v) != naive.Contains(v) {
				t.Fatalf("target %s: vector %d disagrees with naive", string(m.Provider(fault.TargetSet).AppendName(nil, c, d)), v)
			}
		}
	}
}
