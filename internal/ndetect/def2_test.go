package ndetect

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ndetect/internal/bitset"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/sim"
)

type fakeChecker struct {
	distinct bool
	mu       sync.Mutex
	calls    int
}

func (f *fakeChecker) Distinct(fi, t1, t2 int) bool {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	return f.distinct
}

// TestDef2NDetectionInvariant: even under Definition 2 (with its Definition 1
// fallback), every test set is an n-detection test set in the Definition 1
// sense after iteration n — the paper's "avoid situations where faults are
// detected much fewer than n times".
func TestDef2NDetectionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, checker := range []*fakeChecker{{distinct: true}, {distinct: false}} {
		u := randomUniverse(rng, 128, 10, 4)
		res, err := Procedure1(u, Procedure1Options{
			NMax: 5, K: 15, Seed: 3, Checker: byDefinition{checker}, KeepTestSets: true,
		})
		if err != nil {
			t.Fatalf("Procedure1: %v", err)
		}
		for n := 1; n <= 5; n++ {
			for k, tk := range res.TestSets[n-1] {
				if !tk.IsNDetection(n, u.Targets) {
					t.Fatalf("distinct=%v: T%d after iteration %d is not %d-detection",
						checker.distinct, k, n, n)
				}
			}
		}
		if checker.calls == 0 {
			t.Fatal("checker never consulted")
		}
	}
}

// TestDef2NoneDistinct: when no pair is ever distinct, a fault's Definition
// 2 count saturates at 1 no matter how many of its tests join the set.
func TestDef2NoneDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	u := randomUniverse(rng, 64, 8, 4)
	d2 := newDef2State(len(u.Targets), byDefinition{&fakeChecker{distinct: false}})
	tk := NewTestSet(u.Size)
	for _, v := range u.Targets[0].T.Members() {
		tk.Add(v)
	}
	if got := d2.countUpTo(0, 10, &u.Targets[0], tk); got != 1 {
		t.Fatalf("count = %d, want 1 under none-distinct", got)
	}
}

// TestDef2AllDistinct: when every pair is distinct, Definition 2 counting
// equals Definition 1 counting (up to the requested cap).
func TestDef2AllDistinct(t *testing.T) {
	checker := byDefinition{&fakeChecker{distinct: true}}
	d2 := newDef2State(1, checker)
	f := Fault{Name: "f", T: bitset.FromMembers(32, 0, 3, 6, 9, 12, 15, 18)}
	tk := NewTestSet(32)
	for _, v := range f.T.Members() {
		tk.Add(v)
	}
	if got := d2.countUpTo(0, 7, &f, tk); got != 7 {
		t.Fatalf("count = %d, want 7 under all-distinct", got)
	}
	// The cap is respected: asking for less processes less.
	d2b := newDef2State(1, checker)
	if got := d2b.countUpTo(0, 3, &f, tk); got != 3 {
		t.Fatalf("capped count = %d, want 3", got)
	}
	// And resuming later reaches the full count.
	if got := d2b.countUpTo(0, 10, &f, tk); got != 7 {
		t.Fatalf("resumed count = %d, want 7", got)
	}
}

// def2Universe builds the default-model universe of a hand-made circuit
// for CircuitChecker tests.
func def2Universe(t *testing.T, b *circuit.Builder) *CircuitUniverse {
	t.Helper()
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	u, err := BuildUniverse(c, fault.Default(), AnalyzeOptions{})
	if err != nil {
		t.Fatalf("BuildUniverse: %v", err)
	}
	return u
}

// buildDef2Circuit returns the universe of g2 = (a∧c)∨d, whose targets
// all use the dense memo layout.
func buildDef2Circuit(t *testing.T) *CircuitUniverse {
	t.Helper()
	b := circuit.NewBuilder("def2")
	b.Input("a")
	b.Input("c")
	b.Input("d")
	b.Gate(circuit.And, "g1", "a", "c")
	b.Gate(circuit.Or, "g2", "g1", "d")
	b.Output("g2")
	return def2Universe(t, b)
}

// buildTwoLayoutCircuit returns the universe of an 11-input OR beside a
// 2-input AND of two of its inputs: the OR's output faults have N(f) up to
// 2047 and use the large memo layout, the AND's at most 512 and the dense
// one.
func buildTwoLayoutCircuit(t *testing.T) *CircuitUniverse {
	t.Helper()
	b := circuit.NewBuilder("layouts")
	var ins []string
	for i := 0; i < 11; i++ {
		ins = append(ins, fmt.Sprintf("i%d", i))
		b.Input(ins[i])
	}
	b.Gate(circuit.Or, "wide", ins...)
	b.Gate(circuit.And, "narrow", "i0", "i1")
	b.Output("wide")
	b.Output("narrow")
	u := def2Universe(t, b)
	dense, large := 0, 0
	for _, f := range u.Targets {
		switch n := f.T.Count(); {
		case n > denseMaxN:
			large++
		case n >= 2:
			dense++
		}
	}
	if dense == 0 || large == 0 {
		t.Fatalf("want targets in both layouts, got %d dense and %d large", dense, large)
	}
	return u
}

// kernelChecker is the memo-free Definition 2 pair oracle: every Distinct
// call runs its one pair through the fault's cone with DetectsPairs, and
// nothing is kept between calls.
type kernelChecker struct {
	cones   []*sim.FaultCone
	faults  []fault.StuckAt
	scratch sync.Pool // *sim.PairScratch, one per call in flight
}

func newKernelChecker(u *CircuitUniverse) *kernelChecker {
	compiled := sim.CompileCircuit(u.Circuit)
	k := &kernelChecker{faults: u.StuckAt(), scratch: sync.Pool{New: func() any { return new(sim.PairScratch) }}}
	for _, f := range k.faults {
		k.cones = append(k.cones, compiled.NewFaultCone(f.Node))
	}
	return k
}

func (k *kernelChecker) Distinct(i, t1, t2 int) bool {
	if t1 == t2 {
		return false
	}
	s := k.scratch.Get().(*sim.PairScratch)
	defer k.scratch.Put(s)
	return k.cones[i].DetectsPairs(uint64(t1), []int{t2}, k.faults[i].Value, s) == 0
}

// pairChecker is a Definition 2 oracle asked one pair at a time:
// Distinct(i, t1, t2) reports whether t1 and t2 count as two detections
// of target i.
type pairChecker interface {
	Distinct(faultIndex, t1, t2 int) bool
}

// byDefinition answers DistinctAll and FirstDistinct from Distinct alone,
// so a pair oracle can serve as a DistinctChecker.
type byDefinition struct{ pairChecker }

func (b byDefinition) DistinctAll(i, v int, ds []int) bool {
	for _, d := range ds {
		if !b.Distinct(i, v, d) {
			return false
		}
	}
	return true
}

func (b byDefinition) FirstDistinct(i int, cands []int, ds []int) int {
	for j, v := range cands {
		if b.DistinctAll(i, v, ds) {
			return j
		}
	}
	return -1
}

// checkerSample picks about 40 members of T(f), spread over it, then up
// to 4 non-members, each followed by the next member above it, whose
// dense slot the non-member's rank would alias. The members come first,
// so their verdicts are in the memo when the non-members ask.
func checkerSample(t *bitset.Set, size int) []int {
	members := t.Members()
	var out []int
	for i := 0; i < len(members); i += max(1, len(members)/40) {
		out = append(out, members[i])
	}
	for v, picked := 1, 0; v < size && picked < 4; v += size/5 + 1 {
		if t.Contains(v) {
			continue
		}
		picked++
		out = append(out, v)
		for w := v + 1; w < size; w++ {
			if t.Contains(w) {
				out = append(out, w)
				break
			}
		}
	}
	return out
}

// checkerQueries asks q, target by target in the given order, DistinctAll
// on every ordered pair of the target's sample, one pair at a time, then
// DistinctAll and FirstDistinct over it. It returns the answers by target.
func checkerQueries(u *CircuitUniverse, q DistinctChecker, order []int) [][]int {
	out := make([][]int, len(u.Targets))
	for _, fi := range order {
		sample := checkerSample(u.Targets[fi].T, u.Size)
		var got []int
		for _, a := range sample {
			for _, b := range sample {
				got = append(got, b2i(q.DistinctAll(fi, a, []int{b})))
			}
		}
		for i, a := range sample {
			ds := sample[(i+1)%len(sample):]
			ds = ds[:min(len(ds), 1+i%4)]
			got = append(got, b2i(q.DistinctAll(fi, a, ds)), q.FirstDistinct(fi, sample, ds))
		}
		out[fi] = got
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// targetOrder returns the target indices of u, ascending or descending.
func targetOrder(u *CircuitUniverse, descending bool) []int {
	order := make([]int, len(u.Targets))
	for i := range order {
		order[i] = i
	}
	if descending {
		slices.Reverse(order)
	}
	return order
}

func TestCircuitCheckerBasics(t *testing.T) {
	for _, u := range []*CircuitUniverse{buildDef2Circuit(t), buildTwoLayoutCircuit(t)} {
		cc := NewCircuitCheckerFor(u)
		// A test is never distinct from itself.
		if cc.DistinctAll(0, 3, []int{3}) {
			t.Fatalf("%s: t distinct from itself", u.Circuit.Name)
		}
		// Symmetry: the memo's pair is unordered.
		for fi := range u.Targets {
			for a := 0; a < 8; a++ {
				for b := a + 1; b < 8; b++ {
					if cc.DistinctAll(fi, a, []int{b}) != cc.DistinctAll(fi, b, []int{a}) {
						t.Fatalf("%s: asymmetric distinctness for fault %d pair (%d,%d)", u.Circuit.Name, fi, a, b)
					}
				}
			}
		}
		// The memo agrees with the memo-free oracle, asked once (misses)
		// and again (hits).
		order := targetOrder(u, false)
		want := checkerQueries(u, byDefinition{newKernelChecker(u)}, order)
		for pass := 0; pass < 2; pass++ {
			if got := checkerQueries(u, cc, order); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s pass %d: checker and memo-free oracle differ", u.Circuit.Name, pass)
			}
		}
	}
}

// TestCircuitCheckerSemantics: hand-verified cases on g2 = (a∧c)∨d.
func TestCircuitCheckerSemantics(t *testing.T) {
	u := buildDef2Circuit(t)
	cc := NewCircuitCheckerFor(u)

	// Find fault d/1 (input d stuck at 1). T(d/1) = vectors with d=0 and
	// a∧c=0: {000,010,100} = {0,2,4}.
	di := -1
	for i, f := range u.Targets {
		if f.Name == "d/1" {
			di = i
		}
	}
	if di < 0 {
		t.Skip("d/1 collapsed away; representative differs")
	}
	// t1=000(0), t2=010(2): common = 0X0. Under 0X0 the fault d/1 makes
	// g2: good = (0∧X)∨0 = 0, faulty = (0∧X)∨1 = 1 → t12 DETECTS the
	// fault → tests are NOT distinct.
	if cc.DistinctAll(di, 0, []int{2}) {
		t.Fatal("(000,010) should be similar for d/1: common 0X0 still detects it")
	}
	// t1=000(0), t2=100(4): common = X00; good g2 = (X∧0)∨0 = 0, faulty =
	// (X∧0)∨1 = 1 → detected → not distinct either.
	if cc.DistinctAll(di, 0, []int{4}) {
		t.Fatal("(000,100) should be similar for d/1")
	}
}

// TestCircuitCheckerEmptyQueries: the checker answers empty queries as
// DistinctChecker documents them. FirstDistinct finds no candidate in an
// empty list, whatever ds holds, and accepts the first candidate against
// an empty ds; DistinctAll accepts any test against an empty ds; and a
// test is not distinct from itself.
func TestCircuitCheckerEmptyQueries(t *testing.T) {
	c, err := circuit.EmbeddedBench("c17")
	if err != nil {
		t.Fatal(err)
	}
	u, err := BuildUniverse(c, fault.Default(), AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cc := NewCircuitCheckerFor(u)
	for fi, f := range u.Targets {
		members := f.T.Members()
		if len(members) == 0 {
			continue
		}
		if got := cc.FirstDistinct(fi, nil, nil); got != -1 {
			t.Fatalf("%s: FirstDistinct(no candidates, no ds) = %d, want -1", f.Name, got)
		}
		if got := cc.FirstDistinct(fi, nil, members[:1]); got != -1 {
			t.Fatalf("%s: FirstDistinct(no candidates) = %d, want -1", f.Name, got)
		}
		if got := cc.FirstDistinct(fi, members, nil); got != 0 {
			t.Fatalf("%s: FirstDistinct(no ds) = %d, want 0", f.Name, got)
		}
		if got := cc.FirstDistinct(fi, members[:1], members[:1]); got != -1 {
			t.Fatalf("%s: FirstDistinct(v, {v}) = %d, want -1", f.Name, got)
		}
		if !cc.DistinctAll(fi, members[0], nil) {
			t.Fatalf("%s: DistinctAll(no ds) = false, want true", f.Name)
		}
	}
}

// TestPairMemoLayouts: each layout returns every verdict it was given,
// the dense one allocates a band of its triangle at the band's first
// write and keeps no verdict of a pair with a non-member, and a large
// table that grows keeps every verdict a single writer gave it.
func TestPairMemoLayouts(t *testing.T) {
	verdict := func(v, d int) bool { return (v*7+d*7)%3 != 0 }
	dense := bitset.New(1024)
	for v := 0; v < 1024; v += 3 {
		dense.Add(v)
	}
	large := bitset.New(4096)
	for v := 0; v < 4096; v += 2 {
		large.Add(v)
	}
	for _, set := range []*bitset.Set{dense, large} {
		m := newPairMemo(nil, false, set)
		if m.dense != (set == dense) {
			t.Fatalf("N(f) = %d: dense = %v", set.Count(), m.dense)
		}
		members := set.Members()
		if m.dense {
			m.put(members[0], members[1], verdict(members[0], members[1]))
			held := 0
			for i := range m.bands {
				if m.bands[i].Load() != nil {
					held++
				}
			}
			if held != 1 || len(m.bands) < 2 {
				t.Fatalf("one verdict holds %d of %d bands, want 1", held, len(m.bands))
			}
		}
		if len(members) > 200 {
			members = members[:200]
		}
		for _, v := range members {
			for _, d := range members {
				if v != d {
					m.put(v, d, verdict(v, d))
				}
			}
		}
		for _, v := range members {
			for _, d := range members {
				if v == d {
					continue
				}
				want := uint64(verdictSimilar)
				if verdict(v, d) {
					want = verdictDistinct
				}
				if got := m.get(d, v); got != want {
					t.Fatalf("N(f) = %d: pair (%d,%d) reads %d, want %d", set.Count(), v, d, got, want)
				}
			}
		}
		if m.dense {
			// 1 ∉ T(f), and a rank for it would be 3's: the pair (1, 6)
			// must neither read nor write the slot of (3, 6), a similar
			// pair.
			m.put(1, 6, true)
			if got := m.get(1, 6); got != verdictUnknown {
				t.Fatalf("non-member pair reads %d from the dense layout", got)
			}
			if got := m.get(3, 6); got != verdictSimilar {
				t.Fatalf("pair (3,6) reads %d after a non-member's write, want %d", got, verdictSimilar)
			}
		} else if n := len(m.tab.Load().slots); n <= pairTableSlots {
			t.Fatalf("large table never grew: %d slots for %d pairs", n, len(members)*(len(members)-1)/2)
		}
	}
}

// TestCircuitCheckerConcurrent: 8 goroutines share one checker on targets
// of both memo layouts, running DistinctAll and FirstDistinct over pairs
// with members and non-members of T(f), half of them in descending
// target order, while the large tables grow. Every goroutine's
// answers must equal those of a fresh checker queried by one goroutine,
// which TestCircuitCheckerBasics holds to the memo-free oracle.
func TestCircuitCheckerConcurrent(t *testing.T) {
	for _, u := range []*CircuitUniverse{buildDef2Circuit(t), buildTwoLayoutCircuit(t)} {
		want := checkerQueries(u, NewCircuitCheckerFor(u), targetOrder(u, false))
		cc := NewCircuitCheckerFor(u)
		var wg sync.WaitGroup
		results := make([][][]int, 8)
		for w := range results {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				results[w] = checkerQueries(u, cc, targetOrder(u, w%2 == 1))
			}(w)
		}
		wg.Wait()
		for w, got := range results {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: goroutine %d differs from a single-goroutine checker", u.Circuit.Name, w)
			}
		}
		grown := 0
		for i := range cc.memos {
			if m := cc.memos[i].Load(); m != nil && !m.dense && len(m.tab.Load().slots) > pairTableSlots {
				grown++
			}
		}
		if u.Circuit.Name == "layouts" && grown == 0 {
			t.Fatal("no large table grew while the goroutines shared it")
		}
	}
}

// TestDef2ImprovesDiversityOnCircuit: an end-to-end sanity check of the
// paper's Section 4 claim on a circuit with reconvergent structure: under
// Definition 2 the mean detection probability of hard untargeted faults is
// at least that of Definition 1. (Statistical, with fixed seeds.)
func TestDef2ImprovesDiversityOnCircuit(t *testing.T) {
	b := circuit.NewBuilder("div")
	for _, n := range []string{"a", "c", "d", "e", "f"} {
		b.Input(n)
	}
	b.Gate(circuit.And, "g1", "a", "c")
	b.Gate(circuit.And, "g2", "d", "e")
	b.Gate(circuit.And, "g3", "c", "d")
	b.Gate(circuit.Or, "g4", "g1", "g2")
	b.Gate(circuit.Or, "g5", "g4", "g3")
	b.Gate(circuit.And, "g6", "g5", "f")
	b.Output("g6")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	u, err := BuildUniverse(c, fault.Default(), AnalyzeOptions{})
	if err != nil {
		t.Fatalf("BuildUniverse: %v", err)
	}
	if len(u.Untargeted) == 0 {
		t.Skip("no bridging faults in this circuit")
	}
	opts := Procedure1Options{NMax: 3, K: 200, Seed: 42}
	r1, err := Procedure1(&u.Universe, opts)
	if err != nil {
		t.Fatalf("Def1: %v", err)
	}
	opts.Checker = NewCircuitCheckerFor(u)
	r2, err := Procedure1(&u.Universe, opts)
	if err != nil {
		t.Fatalf("Def2: %v", err)
	}
	var sum1, sum2 float64
	for j := range u.Untargeted {
		sum1 += r1.P(3, j)
		sum2 += r2.P(3, j)
	}
	if sum2+1e-9 < sum1*0.95 {
		t.Fatalf("Def2 mean detection (%v) markedly below Def1 (%v)", sum2, sum1)
	}
}
