package sim

import (
	"math/rand"
	"testing"

	"ndetect/internal/circuit"
	"ndetect/internal/fault"
)

// The pattern-list forms of the staged cone simulation: one []TV per
// pattern, built by CommonTest or FullTest. They are the references the
// pair kernel DetectsPairs is checked against, next to the scalar
// full-circuit DetectsTV in tv_test.go.

// NewFaultCone compiles the circuit and precomputes the fanout and fanin
// cones of the given node.
func NewFaultCone(c *circuit.Circuit, site int) *FaultCone {
	return CompileCircuit(c).NewFaultCone(site)
}

// DetectsTV reports whether the (possibly partial) pattern detects the
// stuck-at fault (site stuck at stuckVal) under 3-valued simulation. It is
// DetectsTVBatch at batch size one.
func (fc *FaultCone) DetectsTV(pattern []TV, stuckVal bool) bool {
	if len(pattern) != fc.c.NumInputs() {
		panic("sim: FaultCone pattern length mismatch")
	}
	if len(fc.outputs) == 0 {
		return false // fault site cannot reach any output
	}
	return fc.DetectsTVBatch([][]TV{pattern}, stuckVal)[0]
}

// DetectsTVBatch evaluates up to 64 patterns at once and reports, per
// pattern, whether it detects the cone's fault (site stuck at stuckVal).
// Semantically identical to calling DetectsTV per pattern.
func (fc *FaultCone) DetectsTVBatch(patterns [][]TV, stuckVal bool) []bool {
	k := len(patterns)
	if k == 0 {
		return nil
	}
	if k > 64 {
		panic("sim: DetectsTVBatch takes at most 64 patterns")
	}
	out := make([]bool, k)
	if len(fc.outputs) == 0 {
		return out
	}
	c := fc.c
	prog := fc.prog

	n := prog.NumRegs // register r holds node r (CompileAll)
	g1 := make([]uint64, n)
	g0 := make([]uint64, n)
	for i, id := range c.Inputs {
		var p1, p0 uint64
		for j, p := range patterns {
			switch p[i] {
			case One:
				p1 |= 1 << uint(j)
			case Zero:
				p0 |= 1 << uint(j)
			default:
				p1 |= 1 << uint(j)
				p0 |= 1 << uint(j)
			}
		}
		g1[id], g0[id] = p1, p0
	}

	// Good machine on the site's fanin cone; early exit on patterns where
	// the site is not definitely excited.
	prog.ExecTV(fc.tfiOrder, g1, g0)
	var excited uint64
	if stuckVal {
		excited = g0[fc.site] &^ g1[fc.site] // good site definitely 0, fault s-a-1
	} else {
		excited = g1[fc.site] &^ g0[fc.site]
	}
	if excited == 0 {
		return out
	}

	prog.ExecTV(fc.rest, g1, g0)

	b1 := make([]uint64, n)
	b0 := make([]uint64, n)
	copy(b1, g1)
	copy(b0, g0)
	if stuckVal {
		b1[fc.site], b0[fc.site] = ^uint64(0), 0
	} else {
		b1[fc.site], b0[fc.site] = 0, ^uint64(0)
	}
	prog.ExecTV(fc.order, b1, b0)

	var detect uint64
	for _, oi := range fc.outputs {
		o := c.Outputs[oi]
		goodDef1 := g1[o] &^ g0[o]
		goodDef0 := g0[o] &^ g1[o]
		badDef1 := b1[o] &^ b0[o]
		badDef0 := b0[o] &^ b1[o]
		detect |= (goodDef1 & badDef0) | (goodDef0 & badDef1)
	}
	detect &= excited
	for j := range patterns {
		out[j] = detect&(1<<uint(j)) != 0
	}
	return out
}

// TestDetectsTVBatchMatchesScalar: the dual-rail batched simulation must
// agree with the scalar 3-valued path for every pattern and fault.
func TestDetectsTVBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		c := randomCircuit(t, rng, 4+rng.Intn(3), 10+rng.Intn(12))
		m := c.NumInputs()
		faults := fault.AllStuckAt(c)
		for _, f := range faults[:min(len(faults), 12)] {
			cone := NewFaultCone(c, f.Node)
			var patterns [][]TV
			for i := 0; i < 50; i++ {
				p := make([]TV, m)
				for j := range p {
					p[j] = TV(rng.Intn(3))
				}
				patterns = append(patterns, p)
			}
			got := cone.DetectsTVBatch(patterns, f.Value)
			for i, p := range patterns {
				want := cone.DetectsTV(p, f.Value)
				if got[i] != want {
					t.Fatalf("trial %d fault %s pattern %d: batch %v, scalar %v",
						trial, f.Name(c), i, got[i], want)
				}
				// And the scalar cone path must agree with the full-circuit
				// reference DetectsTV.
				if ref := DetectsTV(c, p, f); ref != want {
					t.Fatalf("trial %d fault %s pattern %d: cone %v, reference %v",
						trial, f.Name(c), i, want, ref)
				}
			}
		}
	}
}

func TestDetectsTVBatchEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c := randomCircuit(t, rng, 4, 10)
	f := fault.AllStuckAt(c)[0]
	cone := NewFaultCone(c, f.Node)

	if got := cone.DetectsTVBatch(nil, f.Value); got != nil {
		t.Fatal("empty batch should return nil")
	}
	// A single pattern works.
	p := FullTest(3, c.NumInputs())
	got := cone.DetectsTVBatch([][]TV{p}, f.Value)
	if len(got) != 1 || got[0] != cone.DetectsTV(p, f.Value) {
		t.Fatal("single-pattern batch disagrees")
	}
	// Exactly 64 patterns works; 65 panics.
	var many [][]TV
	for i := 0; i < 64; i++ {
		many = append(many, FullTest(uint64(i%c.VectorSpaceSize()), c.NumInputs()))
	}
	_ = cone.DetectsTVBatch(many, f.Value)
	defer func() {
		if recover() == nil {
			t.Fatal("65-pattern batch did not panic")
		}
	}()
	cone.DetectsTVBatch(append(many, p), f.Value)
}

// TestFaultConeUnobservable: a cone with no outputs never detects.
func TestFaultConeUnobservable(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	c := randomCircuit(t, rng, 4, 12)
	// Find a node that reaches no output, if any (dangling gates happen in
	// random circuits when later gates are the only outputs).
	for _, n := range c.Nodes {
		cone := NewFaultCone(c, n.ID)
		if len(cone.outputs) > 0 {
			continue
		}
		p := FullTest(0, c.NumInputs())
		if cone.DetectsTV(p, true) || cone.DetectsTV(p, false) {
			t.Fatalf("unobservable node %s detected", n.Name)
		}
		got := cone.DetectsTVBatch([][]TV{p}, true)
		if got[0] {
			t.Fatalf("unobservable node %s detected in batch", n.Name)
		}
		var s PairScratch
		if cone.DetectsPairs(0, []int{1, 2}, true, &s) != 0 || cone.DetectsPairs(0, []int{1, 2}, false, &s) != 0 {
			t.Fatalf("unobservable node %s detected by a pair", n.Name)
		}
		return
	}
	t.Skip("no unobservable node in this random circuit")
}

// checkPairsAgainstScalar compares DetectsPairs with the scalar reference
// DetectsTV(c, CommonTest(v, d), f) for every pair (v, d) of the circuit's
// vector space, every node stuck at both values, with the d's of each v
// cut into batches of every listed size. One PairScratch serves every
// call, across faults and circuits, so stale registers would show.
func checkPairsAgainstScalar(t *testing.T, c *circuit.Circuit, batches []int, s *PairScratch) {
	t.Helper()
	size := c.VectorSpaceSize()
	m := c.NumInputs()
	compiled := CompileCircuit(c)
	all := make([]int, size)
	for d := range all {
		all[d] = d
	}
	want := make([]bool, size)
	for _, n := range c.Nodes {
		cone := compiled.NewFaultCone(n.ID)
		for _, val := range []bool{false, true} {
			f := fault.StuckAt{Node: n.ID, Value: val}
			for v := 0; v < size; v++ {
				for d := range want {
					want[d] = DetectsTV(c, CommonTest(uint64(v), uint64(d), m), f)
				}
				for _, bs := range batches {
					for lo := 0; lo < size; lo += bs {
						ds := all[lo:min(lo+bs, size)]
						got := cone.DetectsPairs(uint64(v), ds, val, s)
						if got>>uint(len(ds)) != 0 {
							t.Fatalf("%s %s: lanes beyond the batch set: %#x", c.Name, f.Name(c), got)
						}
						for j, d := range ds {
							if g := got>>uint(j)&1 == 1; g != want[d] {
								t.Fatalf("%s %s batch %d: t_(%d,%d) pair kernel %v, reference %v",
									c.Name, f.Name(c), bs, v, d, g, want[d])
							}
						}
					}
				}
			}
		}
	}
}

// TestDetectsPairsMatchesScalar: the pair kernel agrees with the scalar
// full-circuit reference on every pair of c17 and s27, for every stuck-at
// fault, at batch sizes 1, 63 and 64.
func TestDetectsPairsMatchesScalar(t *testing.T) {
	var s PairScratch
	for _, name := range []string{"c17", "s27"} {
		checkPairsAgainstScalar(t, embeddedCircuit(t, name), []int{1, 63, 64}, &s)
	}
}

// TestDetectsPairsRestrictedCone: a site whose fanout also drives logic
// that reaches no output, beside a second output the site does not reach.
// The cone leaves that logic out of both good and faulty passes, and the
// verdicts still match the full-circuit reference.
func TestDetectsPairsRestrictedCone(t *testing.T) {
	b := circuit.NewBuilder("deadfan")
	for _, n := range []string{"a", "b", "c", "d"} {
		b.Input(n)
	}
	b.Gate(circuit.And, "s", "a", "b")    // the fault site
	b.Gate(circuit.Or, "o1", "s", "c")    // reached output
	b.Gate(circuit.Xor, "x1", "s", "d")   // site fanout, reaches no output
	b.Gate(circuit.Nand, "x2", "x1", "c") // dead too
	b.Gate(circuit.Nor, "y", "c", "d")    // dead, outside the site's fanout
	b.Gate(circuit.Not, "o2", "d")        // output the site does not reach
	b.Output("o1")
	b.Output("o2")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	site, ok := c.NodeByName("s")
	if !ok {
		t.Fatal("site s missing")
	}
	cone := CompileCircuit(c).NewFaultCone(site.ID)
	for _, list := range [][]int{cone.order, cone.rest} {
		for _, id := range list {
			switch c.Node(id).Name {
			case "x1", "x2", "y", "o2":
				t.Fatalf("cone evaluates %s, which feeds no output the site reaches", c.Node(id).Name)
			}
		}
	}
	if len(cone.order) == 0 || len(cone.outputs) != 1 {
		t.Fatalf("cone lost the live path: order %v, outputs %v", cone.order, cone.outputs)
	}
	var s PairScratch
	checkPairsAgainstScalar(t, c, []int{1, 16}, &s)
}

func TestDetectsPairsEdgeCases(t *testing.T) {
	c := embeddedCircuit(t, "c17")
	cone := CompileCircuit(c).NewFaultCone(c.Outputs[0])
	var s PairScratch
	if got := cone.DetectsPairs(0, nil, true, &s); got != 0 {
		t.Fatalf("empty batch = %#x, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("65-pair batch did not panic")
		}
	}()
	cone.DetectsPairs(0, make([]int, 65), true, &s)
}

// TestDetectsPairsAllocationFree: with a grown scratch, a check allocates
// nothing.
func TestDetectsPairsAllocationFree(t *testing.T) {
	c := embeddedCircuit(t, "s27")
	compiled := CompileCircuit(c)
	cones := make([]*FaultCone, len(c.Nodes))
	for i := range cones {
		cones[i] = compiled.NewFaultCone(i)
	}
	ds := make([]int, 64)
	for j := range ds {
		ds[j] = (j * 37) % c.VectorSpaceSize()
	}
	var s PairScratch
	allocs := testing.AllocsPerRun(20, func() {
		for _, fc := range cones {
			fc.DetectsPairs(5, ds, true, &s)
			fc.DetectsPairs(5, ds, false, &s)
		}
	})
	if allocs != 0 {
		t.Fatalf("DetectsPairs allocated %.1f times per run, want 0", allocs)
	}
}

// TestDualRailEncodingOperators verifies the dual-rail gate equations
// against the scalar TV operators on all value combinations.
func TestDualRailEncodingOperators(t *testing.T) {
	enc := func(v TV) (uint64, uint64) {
		switch v {
		case One:
			return 1, 0
		case Zero:
			return 0, 1
		default:
			return 1, 1
		}
	}
	dec := func(p1, p0 uint64) TV {
		switch {
		case p1 == 1 && p0 == 0:
			return One
		case p1 == 0 && p0 == 1:
			return Zero
		default:
			return X
		}
	}
	vals := []TV{Zero, One, X}
	for _, a := range vals {
		for _, b := range vals {
			a1, a0 := enc(a)
			b1, b0 := enc(b)
			if got := dec(a1&b1, a0|b0); got != tvAnd(a, b) {
				t.Fatalf("AND(%v,%v): dual-rail %v, scalar %v", a, b, got, tvAnd(a, b))
			}
			if got := dec(a1|b1, a0&b0); got != tvOr(a, b) {
				t.Fatalf("OR(%v,%v): dual-rail %v, scalar %v", a, b, got, tvOr(a, b))
			}
			x1 := (a1 & b0) | (a0 & b1)
			x0 := (a1 & b1) | (a0 & b0)
			if got := dec(x1, x0); got != tvXor(a, b) {
				t.Fatalf("XOR(%v,%v): dual-rail %v, scalar %v", a, b, got, tvXor(a, b))
			}
		}
		a1, a0 := enc(a)
		if got := dec(a0, a1); got != tvNot(a) {
			t.Fatalf("NOT(%v): dual-rail %v, scalar %v", a, got, tvNot(a))
		}
	}
}
