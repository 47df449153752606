package sim

import (
	"testing"

	"ndetect/internal/bitset"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
)

func embeddedCircuit(t *testing.T, name string) *circuit.Circuit {
	t.Helper()
	c, err := circuit.EmbeddedBench(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// buildModelTSets runs the T-set builder of a model against c,
// exactly as BuildUniverse would: descriptors from the structural half,
// bitsets from the semantic half.
func buildModelTSets(t *testing.T, c *circuit.Circuit, id string) (fault.Model, []*bitset.Set, []*bitset.Set, []fault.Descriptor) {
	t.Helper()
	m, err := fault.Resolve(id)
	if err != nil {
		t.Fatal(err)
	}
	build, err := ModelTSetsFor(id)
	if err != nil {
		t.Fatal(err)
	}
	e, err := RunWorkers(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := build(e,
		fault.EnumerateSet(m, c, fault.TargetSet),
		fault.EnumerateSet(m, c, fault.UntargetedSet),
		func(string) {})
	if err != nil {
		t.Fatal(err)
	}
	return m, ts.Targets, ts.Untargeted, ts.Kept
}

// TestTransitionTSetsMatchNaive cross-checks the outer-product transition
// builder against the definitional membership rule, pair by pair: (v1, v2)
// detects a transition fault on line l mimicking stuck value V iff l
// carries V at v1 (initialization) and v2 detects l stuck-at-V (launch),
// with the launch factor taken from the scalar reference simulator.
// c17 (|U| = 32) exercises liftProduct's bit loop; s27 (|U| = 128) the
// word-aligned row fast path.
func TestTransitionTSetsMatchNaive(t *testing.T) {
	for _, name := range []string{"c17", "s27"} {
		t.Run(name, func(t *testing.T) {
			c := embeddedCircuit(t, name)
			m, tT, uT, kept := buildModelTSets(t, c, "transition")
			size := c.VectorSpaceSize()

			// Node values per initialization vector, from the reference
			// evaluator (not the engine under test).
			vals := make([][]bool, size)
			for v := 0; v < size; v++ {
				vals[v] = c.Eval(uint64(v))
			}

			keptIdx := make(map[fault.Descriptor]int, len(kept))
			for i, d := range kept {
				keptIdx[d] = i
			}
			for _, d := range fault.EnumerateSet(m, c, fault.UntargetedSet) {
				naiveDet := NaiveStuckAtTSet(c, d.StuckAt())
				fname := string(m.Provider(fault.UntargetedSet).AppendName(nil, c, d))
				i, isKept := keptIdx[d]
				detectable := false
				for v1 := 0; v1 < size; v1++ {
					init := vals[v1][d.A] == (d.V != 0)
					for v2 := 0; v2 < size; v2++ {
						want := init && naiveDet.Contains(v2)
						detectable = detectable || want
						switch {
						case isKept:
							if got := uT[i].Contains(v1*size + v2); got != want {
								t.Fatalf("%s: pair (%d,%d): builder says %v, naive says %v", fname, v1, v2, got, want)
							}
						case want:
							t.Fatalf("%s: dropped as undetectable, but naive detects it at (%d,%d)", fname, v1, v2)
						}
					}
				}
				if isKept && !detectable {
					t.Errorf("%s: kept, but naive finds no detecting pair", fname)
				}
			}

			// Lifted stuck-at targets: a two-pattern test applies both of
			// its vectors, so (v1, v2) ∈ T_pair(f) iff either coordinate is
			// in the single-vector T(f).
			targets := fault.EnumerateSet(m, c, fault.TargetSet)
			if len(tT) != len(targets) {
				t.Fatalf("got %d target T-sets, want %d (targets are never filtered)", len(tT), len(targets))
			}
			for i, d := range targets {
				naive := NaiveStuckAtTSet(c, d.StuckAt())
				fname := string(m.Provider(fault.TargetSet).AppendName(nil, c, d))
				for v1 := 0; v1 < size; v1++ {
					for v2 := 0; v2 < size; v2++ {
						want := naive.Contains(v1) || naive.Contains(v2)
						if got := tT[i].Contains(v1*size + v2); got != want {
							t.Fatalf("target %s: pair (%d,%d): lifted says %v, naive says %v", fname, v1, v2, got, want)
						}
					}
				}
			}
		})
	}
}
