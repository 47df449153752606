package sim

import (
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"ndetect/internal/bitset"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
)

// nodeValues returns every node's good-machine value set over U, the i-th
// holding the vectors where node i is 1, from goodColumns: the same
// streamBlocks pass production runs for the bridge dominants' columns.
func nodeValues(t *testing.T, c *circuit.Circuit, workers int) []*bitset.Set {
	t.Helper()
	e, err := RunWorkers(c, workers)
	if err != nil {
		t.Fatalf("RunWorkers: %v", err)
	}
	nodes := make([]int32, c.NumNodes())
	for i := range nodes {
		nodes[i] = int32(i)
	}
	return e.goodColumns(nodes).One
}

// testCircuit builds the 4-input example used across the sim tests:
// f = (i1∧i2) ∨ (i2∧i3∧i4), plus a second output h = ¬(i3∧i4).
func testCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("simtest")
	b.Input("i1")
	b.Input("i2")
	b.Input("i3")
	b.Input("i4")
	b.Gate(circuit.And, "g9", "i1", "i2")
	b.Gate(circuit.And, "g10", "i2", "i3", "i4")
	b.Gate(circuit.Or, "g11", "g9", "g10")
	b.Gate(circuit.Nand, "g12", "i3", "i4")
	b.Output("g11")
	b.Output("g12")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c
}

// randomCircuit builds a random normalized DAG circuit for cross-checks.
func randomCircuit(t *testing.T, rng *rand.Rand, inputs, gates int) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("rand")
	names := make([]string, 0, inputs+gates)
	for i := 0; i < inputs; i++ {
		n := "x" + strconv.Itoa(i)
		b.Input(n)
		names = append(names, n)
	}
	kinds := []circuit.Kind{circuit.And, circuit.Or, circuit.Nand, circuit.Nor, circuit.Xor, circuit.Xnor, circuit.Not, circuit.Buf}
	for g := 0; g < gates; g++ {
		kind := kinds[rng.Intn(len(kinds))]
		n := "g" + strconv.Itoa(g)
		if kind == circuit.Not || kind == circuit.Buf {
			b.Gate(kind, n, names[rng.Intn(len(names))])
		} else {
			nf := 2 + rng.Intn(3)
			perm := rng.Perm(len(names))
			fins := make([]string, 0, nf)
			for _, p := range perm[:min(nf, len(perm))] {
				fins = append(fins, names[p])
			}
			b.Gate(kind, n, fins...)
		}
		names = append(names, n)
	}
	// Outputs: the last few gates.
	nOut := 1 + rng.Intn(3)
	for i := 0; i < nOut; i++ {
		b.Output("g" + strconv.Itoa(gates-1-i))
	}
	c, err := b.Build()
	if err != nil {
		t.Fatalf("random Build: %v", err)
	}
	return c
}

// wideCircuit returns a 14-input random circuit, whose 256-word universe
// exceeds smallUniverseWords, so every analysis of it streams through the
// block-parallel paths.
func wideCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	c := randomCircuit(t, rand.New(rand.NewSource(11)), 14, 5)
	if nWords := universeWords(c.VectorSpaceSize()); nWords <= smallUniverseWords {
		t.Fatalf("%d-word universe takes the one-block path", nWords)
	}
	return c
}

// sample returns n elements spread evenly over s, or s itself when it has
// at most n.
func sample[T any](s []T, n int) []T {
	if len(s) <= n {
		return s
	}
	out := make([]T, n)
	for i := range out {
		out[i] = s[i*len(s)/n]
	}
	return out
}

func TestRunMatchesScalarEval(t *testing.T) {
	c := testCircuit(t)
	values := nodeValues(t, c, 0)
	for v := 0; v < c.VectorSpaceSize(); v++ {
		want := c.Eval(uint64(v))
		for id := range c.Nodes {
			if got := values[id].Contains(v); got != want[id] {
				t.Fatalf("node %s at v=%d: parallel %v, scalar %v", c.Node(id).Name, v, got, want[id])
			}
		}
	}
}

func TestRunMatchesScalarEvalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		c := randomCircuit(t, rng, 3+rng.Intn(6), 5+rng.Intn(25))
		values := nodeValues(t, c, 0)
		for v := 0; v < c.VectorSpaceSize(); v++ {
			want := c.Eval(uint64(v))
			for id := range c.Nodes {
				if got := values[id].Contains(v); got != want[id] {
					t.Fatalf("trial %d node %d v=%d: parallel %v scalar %v", trial, id, v, got, want[id])
				}
			}
		}
	}
}

func TestRunRejectsWideCircuits(t *testing.T) {
	b := circuit.NewBuilder("wide")
	names := make([]string, MaxInputs+2)
	for i := range names {
		names[i] = "x" + strconv.Itoa(i)
		b.Input(names[i])
	}
	b.Gate(circuit.And, "g", names...)
	b.Output("g")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := RunWorkers(c, 0); err == nil {
		t.Fatalf("Run accepted a %d-input circuit", MaxInputs+2)
	}
}

func TestStuckAtTSetsMatchNaive(t *testing.T) {
	c := testCircuit(t)
	e, err := RunWorkers(c, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	faults := fault.AllStuckAt(c)
	tsets := e.StuckAtTSets(faults)
	for i, f := range faults {
		want := NaiveStuckAtTSet(c, f)
		if !tsets[i].Equal(want) {
			t.Fatalf("fault %s: parallel %s, naive %s", f.Name(c), tsets[i], want)
		}
	}
}

// TestStuckAtTSetsMatchNaiveRandom checks every stuck-at T-set of random
// one-block circuits, and a fixed sample of a 14-input circuit's, whose
// universe streams through the block-parallel path, against the naive
// reference.
func TestStuckAtTSetsMatchNaiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 11; trial++ {
		var c *circuit.Circuit
		if trial < 10 {
			c = randomCircuit(t, rng, 4+rng.Intn(4), 8+rng.Intn(15))
		} else {
			c = wideCircuit(t)
		}
		e, err := RunWorkers(c, 0)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		faults := fault.AllStuckAt(c)
		if trial == 10 {
			faults = sample(faults, 24)
		}
		tsets := e.StuckAtTSets(faults)
		for i, f := range faults {
			want := NaiveStuckAtTSet(c, f)
			if !tsets[i].Equal(want) {
				t.Fatalf("trial %d fault %s: parallel %s, naive %s", trial, f.Name(c), tsets[i], want)
			}
		}
	}
}

// TestBridgeTSetsMatchNaive checks the factored bridge universe against
// the scalar reference, on random circuits and on every embedded circuit
// with at most 8 inputs: for every candidate bridge, S ∩ D equals its
// naive set (NaiveBridgeTSets, NaiveBridgeTSet batched), and the default
// model's builder keeps exactly the candidates whose naive set is
// non-empty, with those factors.
func TestBridgeTSetsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var circuits []*circuit.Circuit
	for trial := 0; trial < 10; trial++ {
		circuits = append(circuits, randomCircuit(t, rng, 4+rng.Intn(4), 8+rng.Intn(15)))
	}
	circuits = append(circuits, embeddedCircuits(t, 8)...)
	for _, c := range circuits {
		e, err := RunWorkers(c, 0)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		targets, bridges, ts := buildDefault(t, e)
		doms := make([]int32, 0, len(bridges))
		for _, b := range bridges {
			doms = append(doms, b.A)
		}
		slices.Sort(doms)
		cols := e.goodColumns(slices.Compact(doms))
		victim, column, err := FactorBridges(c, targets, cols, bridges)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		gs := make([]fault.Bridge, len(bridges))
		for i, b := range bridges {
			gs[i] = b.Bridge()
		}
		naive := NaiveBridgeTSets(c, gs)
		j := 0
		for i, b := range bridges {
			g, want := gs[i], naive[i]
			if got := ts.Targets[victim[i]].Intersection(cols.Set(column[i])); !got.Equal(want) {
				t.Fatalf("%s bridge %s: factored %s, naive %s", c.Name, g.Name(c), got, want)
			}
			kept := j < len(ts.Kept) && ts.Kept[j] == b
			switch {
			case want.IsEmpty() && kept:
				t.Fatalf("%s bridge %s: kept, but naive finds no test", c.Name, g.Name(c))
			case !want.IsEmpty() && !kept:
				t.Fatalf("%s bridge %s: dropped, but naive detects it", c.Name, g.Name(c))
			case kept:
				if got := ts.Targets[ts.Victim[j]].Intersection(ts.Columns.Set(ts.Column[j])); !got.Equal(want) {
					t.Fatalf("%s bridge %s: kept factors give %s, naive %s", c.Name, g.Name(c), got, want)
				}
				j++
			}
		}
		if j != len(ts.Kept) {
			t.Fatalf("%s: builder kept %d bridges, matched %d", c.Name, len(ts.Kept), j)
		}
	}
}

func TestKnownTSets(t *testing.T) {
	// In testCircuit: g12 = NAND(i3,i4). Fault i3/0 (on the branch feeding
	// g12... the stem i3 fans out). Check a stem fault instead: output g11
	// stuck-at-0 is detected wherever g11=1.
	c := testCircuit(t)
	e, err := RunWorkers(c, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	g11, _ := c.NodeByName("g11")
	// g11 may fan out only to the output (no branches), so its prop mask is
	// the full space and T(g11/0) = ON-set of f.
	fs := []fault.StuckAt{{Node: g11.ID, Value: false}, {Node: g11.ID, Value: true}}
	ts := e.StuckAtTSets(fs)
	for v := 0; v < 16; v++ {
		i1 := circuit.VectorBit(uint64(v), 0, 4)
		i2 := circuit.VectorBit(uint64(v), 1, 4)
		i3 := circuit.VectorBit(uint64(v), 2, 4)
		i4 := circuit.VectorBit(uint64(v), 3, 4)
		on := (i1 && i2) || (i2 && i3 && i4)
		if ts[0].Contains(v) != on {
			t.Fatalf("T(g11/0) wrong at %d", v)
		}
		if ts[1].Contains(v) != !on {
			t.Fatalf("T(g11/1) wrong at %d", v)
		}
	}
}

func TestPropMaskOfUnobservableNode(t *testing.T) {
	// A node that doesn't reach any output has an empty prop mask.
	b := circuit.NewBuilder("dangling")
	b.Input("a")
	b.Input("c")
	b.Gate(circuit.And, "used", "a", "c")
	b.Gate(circuit.Or, "unused", "a", "c")
	b.Output("used")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	e, err := RunWorkers(c, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	un, _ := c.NodeByName("unused")
	if !e.propMasks([]int{un.ID})[un.ID].IsEmpty() {
		t.Fatal("unobservable node has non-empty prop mask")
	}
}

func TestNaiveExhaustiveMatchesRun(t *testing.T) {
	c := testCircuit(t)
	values := nodeValues(t, c, 0)
	naive := NaiveExhaustive(c)
	for id := range c.Nodes {
		if !values[id].Equal(naive[id]) {
			t.Fatalf("node %d differs", id)
		}
	}
}

// ---- Engine acceptance tests -------------------------------------------
//
// `go test -run Engine -v` exercises the streaming-kernel contract: both
// compiled widths agree with the per-vector references, the streaming path
// materializes no per-node universe bitsets, and circuits wider than the
// old 24-input ceiling pass.

// TestEngineModesAgreeRandom is the fuzz cross-check harness: random
// circuits run through the word-block and dual-rail modes, asserting exact
// agreement with the naive references (NaiveStuckAtTSet over
// circuit.EvalInto for two-valued, SimulateTV for three-valued).
func TestEngineModesAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		c := randomCircuit(t, rng, 3+rng.Intn(6), 5+rng.Intn(25))
		e, err := RunWorkers(c, 1+rng.Intn(4))
		if err != nil {
			t.Fatalf("trial %d RunWorkers: %v", trial, err)
		}
		faults := fault.AllStuckAt(c)
		word := e.StuckAtTSets(faults) // word-block streaming

		for fi, f := range faults {
			naive := NaiveStuckAtTSet(c, f)
			if !word[fi].Equal(naive) {
				t.Fatalf("trial %d fault %s: word-block %s, naive %s",
					trial, f.Name(c), word[fi], naive)
			}
			// Dual-rail mode on fully specified patterns must agree with
			// T-set membership vector by vector.
			fc := NewFaultCone(c, f.Node)
			for base := 0; base < c.VectorSpaceSize(); base += 64 {
				var patterns [][]TV
				for v := base; v < c.VectorSpaceSize() && v < base+64; v++ {
					patterns = append(patterns, FullTest(uint64(v), c.NumInputs()))
				}
				for j, det := range fc.DetectsTVBatch(patterns, f.Value) {
					if det != word[fi].Contains(base+j) {
						t.Fatalf("trial %d fault %s v=%d: dual-rail %v, T-set %v",
							trial, f.Name(c), base+j, det, word[fi].Contains(base+j))
					}
				}
			}
		}

		if len(faults) > 0 {
			f := faults[rng.Intn(len(faults))]
			fc := NewFaultCone(c, f.Node)
			for iter := 0; iter < 20; iter++ {
				ti := uint64(rng.Intn(c.VectorSpaceSize()))
				tj := uint64(rng.Intn(c.VectorSpaceSize()))
				p := CommonTest(ti, tj, c.NumInputs())
				if got, want := fc.DetectsTV(p, f.Value), DetectsTV(c, p, f); got != want {
					t.Fatalf("trial %d fault %s t_%d,%d: dual-rail %v, reference %v",
						trial, f.Name(c), ti, tj, got, want)
				}
			}
		}
	}
}

// TestEngineStreamingAllocatesNoUniverse pins the memory contract of the
// tentpole: T-set construction over a 2^20-vector universe must allocate
// only the per-fault result bitsets plus block-sized scratch — far less
// than one per-node universe bitset per node (the old sim.Run allocated
// NumNodes of them before any T-set work started).
func TestEngineStreamingAllocatesNoUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randomCircuit(t, rng, 20, 40)
	e, err := RunWorkers(c, 1)
	if err != nil {
		t.Fatalf("RunWorkers: %v", err)
	}
	faults := fault.AllStuckAt(c)[:2]

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tsets := e.StuckAtTSets(faults)
	runtime.ReadMemStats(&after)
	if len(tsets) != 2 || tsets[0].Size() != c.VectorSpaceSize() {
		t.Fatal("unexpected T-set shape")
	}

	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	universeBytes := int64(c.VectorSpaceSize() / 8)
	// Budget: well under one materialized per-node pass, which would need
	// NumNodes × universeBytes before any T-set work began. The bound is
	// relative (a third of that) rather than results+scratch because
	// sync.Pool deliberately drops items under the race detector, inflating
	// scratch reallocation.
	budget := int64(c.NumNodes()) * universeBytes / 3
	if allocated > budget {
		t.Fatalf("streaming T-sets allocated %d bytes, budget %d (universe bitset = %d bytes, %d nodes)",
			allocated, budget, universeBytes, c.NumNodes())
	}
	t.Logf("streaming allocated %d bytes for 2 T-sets over 2^20 vectors (one per-node universe pass would be ≥ %d bytes)",
		allocated, int64(c.NumNodes())*universeBytes)
}

// TestEngineWideCircuit runs a 28-input circuit through the streaming path
// — the old materializing implementation refused anything over 24 inputs.
// The circuit is AND(OR(x0..x13), OR(x14..x27)), whose T-sets have closed
// forms: the root's stuck-at-0 set is the ON-set of size (2^14 − 1)^2.
func TestEngineWideCircuit(t *testing.T) {
	b := circuit.NewBuilder("wide28")
	half := make([][]string, 2)
	for i := 0; i < 28; i++ {
		n := "x" + strconv.Itoa(i)
		b.Input(n)
		half[i/14] = append(half[i/14], n)
	}
	b.Gate(circuit.Or, "l", half[0]...)
	b.Gate(circuit.Or, "r", half[1]...)
	b.Gate(circuit.And, "root", "l", "r")
	b.Output("root")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if c.NumInputs() != 28 {
		t.Fatalf("inputs = %d", c.NumInputs())
	}

	e, err := RunWorkers(c, 0)
	if err != nil {
		t.Fatalf("RunWorkers refused a 28-input circuit: %v", err)
	}
	root, _ := c.NodeByName("root")
	ts := e.StuckAtTSets([]fault.StuckAt{
		{Node: root.ID, Value: false},
		{Node: root.ID, Value: true},
	})

	on := (1<<14 - 1) * (1<<14 - 1)
	if got := ts[0].Count(); got != on {
		t.Fatalf("|T(root/0)| = %d, want %d", got, on)
	}
	if got := ts[1].Count(); got != c.VectorSpaceSize()-on {
		t.Fatalf("|T(root/1)| = %d, want %d", got, c.VectorSpaceSize()-on)
	}
	all := c.VectorSpaceSize() - 1
	if !ts[0].Contains(all) || ts[0].Contains(0) || !ts[1].Contains(0) {
		t.Fatal("T-set membership wrong at the corner vectors")
	}
}

// TestEngineBudgetCheck pins the explicit memory-budget guard that made
// raising MaxInputs safe.
func TestEngineBudgetCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := randomCircuit(t, rng, 20, 10)
	old := MemoryBudget
	defer func() { MemoryBudget = old }()
	MemoryBudget = 1 << 20 // 1 MiB: a 2^20-vector universe set is 128 KiB
	if err := CheckResultBudget(c, 4); err != nil {
		t.Fatalf("4 sets × 128 KiB must fit a 1 MiB budget: %v", err)
	}
	if err := CheckResultBudget(c, 100); err == nil {
		t.Fatal("100 sets × 128 KiB passed a 1 MiB budget")
	}
	// A production T-set builder refuses before it allocates a set.
	e, err := RunWorkers(c, 1)
	if err != nil {
		t.Fatalf("RunWorkers: %v", err)
	}
	m := fault.Default()
	build, err := ModelTSetsFor(m.ID())
	if err != nil {
		t.Fatal(err)
	}
	targets := fault.EnumerateSet(m, c, fault.TargetSet)
	untargeted := fault.EnumerateSet(m, c, fault.UntargetedSet)
	if err := CheckResultBudget(c, len(targets)); err == nil {
		t.Fatalf("%d target sets fit the budget; the check below proves nothing", len(targets))
	}
	if _, err := build(e, targets, untargeted, func(string) {}); err == nil {
		t.Fatal("the default model's T-set builder materialized past the budget")
	}
}
