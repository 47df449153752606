package sim

import (
	"testing"

	"ndetect/internal/circuit"
	"ndetect/internal/fault"
)

// forcedDetects reports whether some primary output of c differs at vector
// v between the good machine's values good and the machine with the nodes in
// forced held at their values, evaluated into bad.
func forcedDetects(c *circuit.Circuit, v int, good, bad []bool, forced ...circuit.Force) bool {
	c.EvalInto(uint64(v), bad, forced...)
	for _, o := range c.Outputs {
		if good[o] != bad[o] {
			return true
		}
	}
	return false
}

// TestMSA2TSetsMatchNaive cross-checks the forced-cone pair builder against
// the reference evaluator, vector by vector: v detects the double stuck-at
// fault {A/V&1, B/V>>1} iff evaluating with both sites forced flips some
// primary output. This is exactly the masking-aware semantics (one fault
// can block the other's effect), so any single-fault shortcut in the
// builder would fail here. c17 runs the whole builder on one block; a
// 14-input random circuit runs a fixed sample of pairs through the
// block-parallel path.
func TestMSA2TSetsMatchNaive(t *testing.T) {
	c := embeddedCircuit(t, "c17")
	m, tT, uT, kept := buildModelTSets(t, c, "msa2")
	size := c.VectorSpaceSize()

	good := make([][]bool, size)
	for v := 0; v < size; v++ {
		good[v] = c.Eval(uint64(v))
	}
	bad := make([]bool, c.NumNodes())

	keptIdx := make(map[fault.Descriptor]int, len(kept))
	for i, d := range kept {
		keptIdx[d] = i
	}
	for _, d := range fault.EnumerateSet(m, c, fault.UntargetedSet) {
		forced := []circuit.Force{{Node: int(d.A), Value: d.V&1 != 0}, {Node: int(d.B), Value: d.V&2 != 0}}
		fname := string(m.Provider(fault.UntargetedSet).AppendName(nil, c, d))
		i, isKept := keptIdx[d]
		detectable := false
		for v := 0; v < size; v++ {
			want := forcedDetects(c, v, good[v], bad, forced...)
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

	c = wideCircuit(t)
	e, err := RunWorkers(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	pairs := sample(fault.EnumerateSet(m, c, fault.UntargetedSet), 12)
	got := e.pairStuckAtTSets(pairs)
	size = c.VectorSpaceSize()
	good = make([][]bool, size)
	for v := 0; v < size; v++ {
		good[v] = c.Eval(uint64(v))
	}
	bad = make([]bool, c.NumNodes())
	for i, d := range pairs {
		forced := []circuit.Force{{Node: int(d.A), Value: d.V&1 != 0}, {Node: int(d.B), Value: d.V&2 != 0}}
		for v := 0; v < size; v++ {
			if want := forcedDetects(c, v, good[v], bad, forced...); got[i].Contains(v) != want {
				t.Fatalf("%s: vector %d: builder says %v, reference says %v",
					m.Provider(fault.UntargetedSet).AppendName(nil, c, d), v, !want, want)
			}
		}
	}
}
