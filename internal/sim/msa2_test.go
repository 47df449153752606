package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"ndetect/internal/bench"
	"ndetect/internal/bitset"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
)

// The msa2 builder orients each pair (base: the site of lower level, A on
// a tie), evaluates the circuit once per base fault with the base forced,
// and replays the partner's single-site cone against that bank, adding
// good ⊕ base-forced for the outputs outside the partner's cone. The tests
// below check it against circuit.EvalInto with both sites forced: every
// pair of c17 through the model builder, every pair of two random 8–11
// input circuits at 1 and 3 workers, and, on the multi-block wideCircuit,
// an even sample plus the pairs where orientation and the outside-cone term
// matter. TestMSA2DisjointPairIsUnion pins T(a,b) = T(a) ∪ T(b) for
// cone-disjoint pairs.

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

// pairForces returns the forces of a pair descriptor {A/V&1, B/V>>1}.
func pairForces(d fault.Descriptor) []circuit.Force {
	return []circuit.Force{{Node: int(d.A), Value: d.V&1 != 0}, {Node: int(d.B), Value: d.V&2 != 0}}
}

// naivePairTSets returns T(pairs[i]) from the reference evaluator: the
// vectors at which some output differs with both sites forced.
func naivePairTSets(c *circuit.Circuit, pairs []fault.Descriptor) []*bitset.Set {
	size := c.VectorSpaceSize()
	good := make([][]bool, size)
	for v := range good {
		good[v] = c.Eval(uint64(v))
	}
	bad := make([]bool, c.NumNodes())
	out := bitset.NewBatch(size, len(pairs))
	for i, d := range pairs {
		forced := pairForces(d)
		for v := 0; v < size; v++ {
			if forcedDetects(c, v, good[v], bad, forced...) {
				out[i].Add(v)
			}
		}
	}
	return out
}

// checkPairsMatchNaive fails at the first pair and vector where got[i]
// and want[i] disagree.
func checkPairsMatchNaive(t *testing.T, c *circuit.Circuit, pairs []fault.Descriptor, got, want []*bitset.Set, label string) {
	t.Helper()
	m, err := fault.Resolve("msa2")
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range pairs {
		if got[i].Equal(want[i]) {
			continue
		}
		for v := 0; v < c.VectorSpaceSize(); v++ {
			if w := want[i].Contains(v); got[i].Contains(v) != w {
				t.Fatalf("%s: %s: vector %d: builder says %v, reference says %v",
					label, m.Provider(fault.UntargetedSet).AppendName(nil, c, d), v, !w, w)
			}
		}
	}
}

// TestMSA2TSetsMatchNaive cross-checks the pair builder against the
// reference evaluator, vector by vector: v detects the double stuck-at
// fault {A/V&1, B/V>>1} iff evaluating with both sites forced flips some
// primary output. This is exactly the masking-aware semantics (one fault
// can block the other's effect), so any single-fault shortcut in the
// builder would fail here. c17 and the random circuits are one block each;
// wideCircuit streams several.
func TestMSA2TSetsMatchNaive(t *testing.T) {
	m, err := fault.Resolve("msa2")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("c17", func(t *testing.T) {
		c := embeddedCircuit(t, "c17")
		_, tT, uT, kept := buildModelTSets(t, c, "msa2")
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
			forced := pairForces(d)
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
	})

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(24))
		for trial := 0; trial < 2; trial++ {
			c := randomCircuit(t, rng, 8+rng.Intn(4), 7+rng.Intn(3))
			pairs := fault.EnumerateSet(m, c, fault.UntargetedSet)
			want := naivePairTSets(c, pairs)
			for _, w := range []int{1, 3} {
				e, err := RunWorkers(c, w)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("random circuit %d (%d inputs, %d pairs), workers %d", trial, c.NumInputs(), len(pairs), w)
				checkPairsMatchNaive(t, c, pairs, e.pairStuckAtTSets(pairs), want, label)
			}
		}
	})

	t.Run("wide", func(t *testing.T) {
		c := wideCircuit(t)
		all := fault.EnumerateSet(m, c, fault.UntargetedSet)
		pairs := sample(all, 12)
		// The cases where the replay's design matters, a few of each:
		// A above B with A inside B's cone (the base must be B), B inside
		// A's cone, and a partner whose cone reaches no output (its pair is
		// detected through the outside-cone term alone).
		reachesOutput := func(id int) bool {
			fo := c.TransitiveFanout(id)
			for _, o := range c.Outputs {
				if fo[o] {
					return true
				}
			}
			return false
		}
		cases := []struct {
			name string
			is   func(d fault.Descriptor) bool
		}{
			{"Level(A) > Level(B), A in B's cone", func(d fault.Descriptor) bool {
				return c.Node(int(d.A)).Level > c.Node(int(d.B)).Level && c.TransitiveFanout(int(d.B))[d.A]
			}},
			{"B in A's cone", func(d fault.Descriptor) bool {
				return c.TransitiveFanout(int(d.A))[d.B]
			}},
			{"partner cone reaches no output", func(d fault.Descriptor) bool {
				partner := int(d.B)
				if c.Node(int(d.B)).Level < c.Node(int(d.A)).Level {
					partner = int(d.A)
				}
				return !reachesOutput(partner)
			}},
		}
		for _, k := range cases {
			var hits []fault.Descriptor
			for _, d := range all {
				if k.is(d) {
					hits = append(hits, d)
				}
			}
			if len(hits) == 0 {
				t.Fatalf("wideCircuit has no pair with %s", k.name)
			}
			pairs = append(pairs, sample(hits, 4)...)
		}
		e, err := RunWorkers(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkPairsMatchNaive(t, c, pairs, e.pairStuckAtTSets(pairs), naivePairTSets(c, pairs), "wideCircuit")
	})
}

// TestMSA2DisjointPairIsUnion: when the transitive fanouts of a pair's
// sites share no node, no gate sees both faults, so T(a,b) = T(a) ∪ T(b)
// exactly, with both sets the same universe's target T-sets. It covers the
// 8 msa2 circuits of the fault-models workload plus c17 and s27.
func TestMSA2DisjointPairIsUnion(t *testing.T) {
	var circuits []*circuit.Circuit
	for _, name := range []string{"dk14", "dk17", "ex2", "ex3", "ex5", "ex7", "beecount", "bbara"} {
		b, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("no benchmark %q", name)
		}
		r, err := b.SynthesizeDefault()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		circuits = append(circuits, r.Circuit)
	}
	circuits = append(circuits, embeddedCircuit(t, "c17"), embeddedCircuit(t, "s27"))
	for _, c := range circuits {
		m, tT, uT, kept := buildModelTSets(t, c, "msa2")
		targetOf := make(map[fault.StuckAt]int)
		for i, d := range fault.EnumerateSet(m, c, fault.TargetSet) {
			targetOf[d.StuckAt()] = i
		}
		keptIdx := make(map[fault.Descriptor]int, len(kept))
		for i, d := range kept {
			keptIdx[d] = i
		}
		fanout := make([]*bitset.Set, c.NumNodes())
		for id := range fanout {
			fanout[id] = bitset.New(c.NumNodes())
			for n, in := range c.TransitiveFanout(id) {
				if in {
					fanout[id].Add(n)
				}
			}
		}
		disjoint := 0
		for _, d := range fault.EnumerateSet(m, c, fault.UntargetedSet) {
			if fanout[d.A].Intersects(fanout[d.B]) {
				continue
			}
			disjoint++
			a, aok := targetOf[fault.StuckAt{Node: int(d.A), Value: d.V&1 != 0}]
			b, bok := targetOf[fault.StuckAt{Node: int(d.B), Value: d.V&2 != 0}]
			if !aok || !bok {
				t.Fatalf("%s: pair %+v names a fault that is no target", c.Name, d)
			}
			union := tT[a].Clone()
			union.UnionWith(tT[b])
			fname := m.Provider(fault.UntargetedSet).AppendName(nil, c, d)
			i, isKept := keptIdx[d]
			switch {
			case isKept && !uT[i].Equal(union):
				t.Fatalf("%s: %s: T(a,b) = %v, T(a) ∪ T(b) = %v", c.Name, fname, uT[i], union)
			case !isKept && !union.IsEmpty():
				t.Fatalf("%s: %s: dropped as undetectable, but T(a) ∪ T(b) = %v", c.Name, fname, union)
			}
		}
		if disjoint == 0 {
			t.Fatalf("%s: no cone-disjoint pair", c.Name)
		}
	}
}
