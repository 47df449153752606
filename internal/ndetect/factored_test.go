package ndetect

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ndetect/internal/bench"
	"ndetect/internal/bitset"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/sim"
)

// The default model's bridges are factored: T stays nil, and Words, Set
// and N read T(g) = s ∩ d, agreeing with the naive simulator. Words
// writes into a long enough dst and returns a materialized fault's own
// words. A missed direct read of T panics instead of reading a factor.
func TestFactoredFaultWords(t *testing.T) {
	raw, err := circuit.EmbeddedBench("c17")
	if err != nil {
		t.Fatal(err)
	}
	u, err := BuildUniverse(raw, fault.Default(), AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if u.Columns == nil || len(u.Untargeted) == 0 {
		t.Fatal("default-model universe is not factored")
	}
	words := (u.Size + 63) / 64
	dst := make([]uint64, words)
	for j, g := range u.Untargeted {
		if g.T != nil {
			t.Fatalf("%s: factored fault has a materialized T", g.Name)
		}
		want := sim.NaiveBridgeTSet(raw, u.UntargetedFaults[j].Bridge())
		if got := g.Set(); !got.Equal(want) {
			t.Fatalf("%s: Set = %s, naive %s", g.Name, got, want)
		}
		if got := g.Words(dst); &got[0] != &dst[0] || !slices.Equal(got, want.Words()) {
			t.Fatalf("%s: Words did not write T(g) into dst", g.Name)
		}
		if g.N() != want.Count() {
			t.Fatalf("%s: N = %d, want %d", g.Name, g.N(), want.Count())
		}
	}
	f := u.Targets[0]
	if got := f.Words(dst); &got[0] != &f.T.Words()[0] {
		t.Fatal("a materialized fault's Words must return its own words")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading T of a factored fault did not panic")
		}
	}()
	_ = u.Untargeted[0].T.Count()
}

// fuzzCircuit decodes bytes into a circuit of 2–8 inputs and 3–34 gates.
// Two header bytes pick the sizes. Each gate then takes a kind byte, a
// fanin-count byte (2–4) unless the kind takes one input, and one byte
// per fanin picking an earlier signal; a pick already taken moves on to
// the next free signal. A last byte makes the last one to three gates the
// outputs. Missing bytes read as zero.
func fuzzCircuit(data []byte) (*circuit.Circuit, error) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	inputs, gates := 2+next()%7, 3+next()%32
	b := circuit.NewBuilder("fuzz")
	names := make([]string, 0, inputs+gates)
	for i := 0; i < inputs; i++ {
		names = append(names, fmt.Sprintf("x%d", i))
		b.Input(names[i])
	}
	kinds := []circuit.Kind{circuit.And, circuit.Or, circuit.Nand, circuit.Nor, circuit.Xor, circuit.Xnor, circuit.Not, circuit.Buf}
	for g := 0; g < gates; g++ {
		kind := kinds[next()%len(kinds)]
		nf := 1
		if kind.MaxFanin() != 1 {
			nf = min(2+next()%3, len(names))
		}
		taken := make([]bool, len(names))
		fanin := make([]string, nf)
		for i := range fanin {
			p := next() % len(names)
			for taken[p] {
				p = (p + 1) % len(names)
			}
			taken[p] = true
			fanin[i] = names[p]
		}
		names = append(names, fmt.Sprintf("g%d", g))
		b.Gate(kind, names[len(names)-1], fanin...)
	}
	for i := 0; i < 1+next()%3; i++ {
		b.Output(fmt.Sprintf("g%d", gates-1-i))
	}
	return b.Build()
}

// checkWorstCaseFactored checks a default-model universe, which keeps its
// factors: the faults the In() rows decide are exactly those with
// NMin(g) = 1, with the same rows at 1 and 3 workers; WorstCaseWorkers
// at 1 and 3 workers equals NMin; and the same universe with its factor
// indices dropped, which takes the scan for every fault, gives the same
// result. It returns the number of faults the rows decide.
func checkWorstCaseFactored(t *testing.T, label string, u *CircuitUniverse) int {
	t.Helper()
	if u.cols == nil || len(u.victim) != len(u.Untargeted) || len(u.column) != len(u.Untargeted) {
		t.Fatalf("%s: default-model universe keeps no factor indices", label)
	}
	want := checkAgainstNMin(t, label, &u.Universe)
	slab := newTargetSlab(u.Targets)
	units := newUnitRows(slab, &u.Universe, 1)
	if again := newUnitRows(slab, &u.Universe, 3); !slices.Equal(again.rows, units.rows) {
		t.Fatalf("%s: In() rows differ between 1 and 3 workers", label)
	}
	decided := 0
	for j, g := range u.Untargeted {
		if got := units.unit(j); got != (want[j] == 1) {
			t.Fatalf("%s: In() rows decide %s: %v, but NMin = %d", label, g.Name, got, want[j])
		}
		if want[j] == 1 {
			decided++
		}
	}
	plain := u.Universe
	plain.victim, plain.column, plain.cols = nil, nil, nil
	got := WorstCaseWorkers(&plain, 1).NMin
	for j, g := range plain.Untargeted {
		if got[j] != want[j] {
			t.Fatalf("%s: without factor indices nmin(%s) = %d, want %d", label, g.Name, got[j], want[j])
		}
	}
	return decided
}

// TestWorstCaseFactoredMatchesNMin runs checkWorstCaseFactored over the
// full untargeted set of every embedded circuit with at most 10 inputs and
// of 10 random circuits. The corpus must exercise both outcomes of the
// In() rows, and hold an undetectable target (an empty T(f), which no
// In() row may count).
func TestWorstCaseFactoredMatchesNMin(t *testing.T) {
	var circuits []*circuit.Circuit
	for _, b := range bench.All() {
		if b.TotalInputs() > 10 {
			continue
		}
		r, err := b.SynthesizeDefault()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		circuits = append(circuits, r.Circuit)
	}
	for _, name := range circuit.EmbeddedBenchNames() {
		c, err := circuit.EmbeddedBench(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.NumInputs() <= 10 {
			circuits = append(circuits, c)
		}
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 10; i++ {
		data := make([]byte, 256)
		rng.Read(data)
		data[0], data[1] = byte(4+i%5), byte(20+i)
		c, err := fuzzCircuit(data)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	decided, faults, empty := 0, 0, false
	for _, c := range circuits {
		u, err := BuildUniverse(c, fault.Default(), AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		decided += checkWorstCaseFactored(t, c.Name, u)
		faults += len(u.Untargeted)
		empty = empty || u.DetectableTargets() < len(u.Targets)
	}
	if decided == 0 || decided == faults || !empty {
		t.Fatalf("corpus too narrow: %d of %d faults decided by In() rows, empty target %v", decided, faults, empty)
	}
}

// FuzzWorstCaseFactored runs checkWorstCaseFactored on the default-model
// universe of a fuzzer-built circuit (fuzzCircuit).
func FuzzWorstCaseFactored(f *testing.F) {
	for i, hdr := range [][2]byte{{0, 0}, {3, 20}, {6, 31}, {4, 12}, {5, 27}} {
		data := make([]byte, 256)
		rand.New(rand.NewSource(int64(i))).Read(data)
		copy(data, hdr[:])
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := fuzzCircuit(data)
		if err != nil {
			t.Fatal(err)
		}
		u, err := BuildUniverse(c, fault.Default(), AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		checkWorstCaseFactored(t, "fuzz", u)
	})
}

// TestWorstCasePairStopsAtBound pins the pair kernel's early exit: once
// |T(f) − T(g)| reaches best − 1 the pair cannot lower best, and no
// further word of T(f) is read. The hand-built slab's second entry has a
// word index past T(g)'s single word after the word that reaches the
// bound, so reading on panics.
func TestWorstCasePairStopsAtBound(t *testing.T) {
	// T(g) = {0, 1}. Entry 0, T(f) = {0, 2}: nmin(g,f) = 2. Entry 1 has
	// N(f) = 2, so its lower bound 1 is below best = 2 and it is
	// evaluated; its first word {2} alone gives |T(f) − T(g)| = 1.
	s := &targetSlab{
		n:     []int{2, 2},
		off:   []int{0, 1, 3},
		words: []uint64{0b101, 0b100, 1},
		idx:   []int32{0, 0, 5},
	}
	g := Fault{Name: "g", T: bitset.FromMembers(64, 0, 1)}
	out := make([]int, 1)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("the pair kernel read past the bound: %v", r)
		}
	}()
	s.nminBlock([]Fault{g}, out, nil, nil, 0)
	if out[0] != 2 {
		t.Fatalf("nmin = %d, want 2", out[0])
	}
}

// TestSetDetectsFactoredAllocFree checks that counting a factored fault's
// detections builds no T(g), and agrees with the materialized set.
func TestSetDetectsFactoredAllocFree(t *testing.T) {
	raw, err := circuit.EmbeddedBench("c17")
	if err != nil {
		t.Fatal(err)
	}
	u, err := BuildUniverse(raw, fault.Default(), AnalyzeOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTestSet(u.Size)
	for v := 0; v < u.Size; v += 3 {
		ts.Add(v)
	}
	for _, g := range u.Untargeted {
		want := ts.member.IntersectionCount(g.Set())
		if got := ts.Detections(g); got != want {
			t.Fatalf("%s: Detections = %d, want %d", g.Name, got, want)
		}
		if got := ts.Detects(g); got != (want > 0) {
			t.Fatalf("%s: Detects = %v, want %v", g.Name, got, want > 0)
		}
	}
	g := u.Untargeted[0]
	if g.T != nil {
		t.Fatal("c17's bridges are not factored")
	}
	if n := testing.AllocsPerRun(100, func() { ts.Detections(g) }); n != 0 {
		t.Fatalf("Detections allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { ts.Detects(g) }); n != 0 {
		t.Fatalf("Detects allocates %v times per call", n)
	}
}
