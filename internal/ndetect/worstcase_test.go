package ndetect

import (
	"fmt"
	"math/rand"
	"testing"

	"ndetect/internal/bench"
	"ndetect/internal/bitset"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/sim"
)

// table1Universe reproduces the paper's example exactly: the published
// T-sets of the faults in F(g0) for the Figure 1 circuit, and
// T(g0) = {6,7}. Every number asserted in TestTable1 is printed in the
// paper's Table 1.
func table1Universe() (*Universe, Fault) {
	const size = 16
	mk := func(members ...int) *bitset.Set { return bitset.FromMembers(size, members...) }
	targets := []Fault{
		{Name: "1/1", T: mk(4, 5, 6, 7)},
		{Name: "2/0", T: mk(6, 7, 12, 13, 14, 15)},
		{Name: "3/0", T: mk(2, 6, 7, 10, 14, 15)},
		{Name: "8/0", T: mk(2, 6, 10, 14)},
		{Name: "9/1", T: mk(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)},
		{Name: "10/0", T: mk(6, 7, 14, 15)},
		{Name: "11/0", T: mk(1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15)},
	}
	g0 := Fault{Name: "(9,0,10,1)", T: mk(6, 7)}
	u := &Universe{Size: size, Targets: targets, Untargeted: []Fault{g0}}
	return u, g0
}

func TestTable1(t *testing.T) {
	u, g0 := table1Universe()
	want := map[string]int{
		"1/1": 3, "2/0": 5, "3/0": 5, "8/0": 4, "9/1": 11, "10/0": 3, "11/0": 11,
	}
	contribs := ContributingFaults(g0, u.Targets)
	if len(contribs) != len(want) {
		t.Fatalf("F(g0) has %d faults, want %d", len(contribs), len(want))
	}
	for _, pc := range contribs {
		if want[pc.Name] != pc.NMin {
			t.Errorf("nmin(g0, %s) = %d, want %d", pc.Name, pc.NMin, want[pc.Name])
		}
	}
	if got := NMin(g0, u.Targets); got != 3 {
		t.Fatalf("nmin(g0) = %d, want 3 (paper Table 1)", got)
	}
	wc := WorstCaseWorkers(u, 0)
	if wc.NMin[0] != 3 {
		t.Fatalf("WorstCase nmin = %d, want 3", wc.NMin[0])
	}
}

func TestNMinPairFormula(t *testing.T) {
	size := 32
	f := Fault{Name: "f", T: bitset.FromMembers(size, 1, 2, 3, 4, 5)}
	g := Fault{Name: "g", T: bitset.FromMembers(size, 4, 5, 6)}
	// N(f)=5, M=2 → nmin = 5-2+1 = 4.
	if got := NMinPair(g, f); got != 4 {
		t.Fatalf("NMinPair = %d, want 4", got)
	}
	// Disjoint → Unbounded.
	h := Fault{Name: "h", T: bitset.FromMembers(size, 30, 31)}
	if got := NMinPair(h, f); got != Unbounded {
		t.Fatalf("NMinPair disjoint = %d, want Unbounded", got)
	}
	// T(f) ⊆ T(g) → nmin = 1 (any detection of f detects g).
	sup := Fault{Name: "sup", T: bitset.FromMembers(size, 1, 2, 3, 4, 5, 6)}
	if got := NMinPair(sup, f); got != 1 {
		t.Fatalf("NMinPair superset = %d, want 1", got)
	}
}

func TestNMinUnboundedWhenNoOverlap(t *testing.T) {
	size := 16
	u := &Universe{
		Size:       size,
		Targets:    []Fault{{Name: "f", T: bitset.FromMembers(size, 0, 1)}},
		Untargeted: []Fault{{Name: "g", T: bitset.FromMembers(size, 15)}},
	}
	wc := WorstCaseWorkers(u, 0)
	if wc.NMin[0] != Unbounded {
		t.Fatalf("nmin = %d, want Unbounded", wc.NMin[0])
	}
	if wc.CoverageAt(1000000) != 0 {
		t.Fatal("unbounded fault counted as covered")
	}
	if wc.CountAtLeast(100) != 1 {
		t.Fatal("unbounded fault missing from CountAtLeast")
	}
}

func randomUniverse(rng *rand.Rand, size, nTargets, nUntargeted int) *Universe {
	mkSet := func(maxCard int) *bitset.Set {
		s := bitset.New(size)
		card := 1 + rng.Intn(maxCard)
		for i := 0; i < card; i++ {
			s.Add(rng.Intn(size))
		}
		return s
	}
	u := &Universe{Size: size}
	for i := 0; i < nTargets; i++ {
		u.Targets = append(u.Targets, Fault{Name: "f" + string(rune('0'+i%10)), T: mkSet(size / 2)})
	}
	for j := 0; j < nUntargeted; j++ {
		u.Untargeted = append(u.Untargeted, Fault{Name: "g" + string(rune('0'+j%10)), T: mkSet(size / 4)})
	}
	return u
}

// TestWorstCaseGuarantee verifies the central theorem of Section 2 on random
// universes: every n-detection test set with n ≥ nmin(g) detects g. The test
// sets are produced by Procedure 1, which generates arbitrary (random)
// n-detection test sets.
func TestWorstCaseGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		u := randomUniverse(rng, 64+rng.Intn(64), 8+rng.Intn(8), 6)
		wc := WorstCaseWorkers(u, 0)
		maxFinite := wc.MaxFinite()
		if maxFinite == 0 {
			continue
		}
		nmax := maxFinite
		if nmax > 40 {
			nmax = 40
		}
		res, err := Procedure1(u, Procedure1Options{
			NMax: nmax, K: 30, Seed: int64(trial), KeepTestSets: true,
		})
		if err != nil {
			t.Fatalf("Procedure1: %v", err)
		}
		for j, g := range u.Untargeted {
			nm := wc.NMin[j]
			if nm == Unbounded || nm > nmax {
				continue
			}
			for n := nm; n <= nmax; n++ {
				for k, tk := range res.TestSets[n-1] {
					if !tk.Detects(g) {
						t.Fatalf("trial %d: %d-detection set %d misses %s with nmin=%d",
							trial, n, k, g.Name, nm)
					}
				}
			}
		}
	}
}

// tightnessWitness returns U − T(g): by construction an (nmin(g)−1)-
// detection test set that fails to detect g, proving the worst-case bound is
// exact. (For every target f ∈ F(g), |T(f) − T(g)| = N(f) − M(g,f) =
// nmin(g,f) − 1 ≥ nmin(g) − 1; targets outside F(g) keep all their tests.)
func tightnessWitness(u *Universe, j int) *bitset.Set {
	w := bitset.New(u.Size)
	w.Fill()
	w.DifferenceWith(u.Untargeted[j].Set())
	return w
}

// TestWorstCaseTightness verifies the bound is exact: U − T(g) is an
// (nmin(g)−1)-detection test set that misses g.
func TestWorstCaseTightness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		u := randomUniverse(rng, 64, 10, 8)
		wc := WorstCaseWorkers(u, 0)
		for j, g := range u.Untargeted {
			nm := wc.NMin[j]
			if nm == Unbounded || nm <= 1 {
				continue
			}
			w := tightnessWitness(u, j)
			ts := NewTestSet(u.Size)
			w.ForEach(func(v int) { ts.Add(v) })
			if ts.Detects(g) {
				t.Fatalf("witness detects %s", g.Name)
			}
			if !ts.IsNDetection(nm-1, u.Targets) {
				t.Fatalf("witness for %s is not an (nmin-1)=%d-detection test set", g.Name, nm-1)
			}
		}
	}
}

func TestCoverageAndCounts(t *testing.T) {
	u := &Universe{Size: 8}
	u.Targets = []Fault{{Name: "f", T: bitset.FromMembers(8, 0, 1, 2, 3)}}
	u.Untargeted = []Fault{
		{Name: "a", T: bitset.FromMembers(8, 0, 1, 2, 3)}, // nmin 1
		{Name: "b", T: bitset.FromMembers(8, 3)},          // nmin 4
		{Name: "c", T: bitset.FromMembers(8, 7)},          // unbounded
	}
	wc := WorstCaseWorkers(u, 0)
	if wc.NMin[0] != 1 || wc.NMin[1] != 4 || wc.NMin[2] != Unbounded {
		t.Fatalf("NMin = %v", wc.NMin)
	}
	if got := wc.CoverageAt(1); got != 1.0/3 {
		t.Fatalf("CoverageAt(1) = %v", got)
	}
	if got := wc.CoverageAt(4); got != 2.0/3 {
		t.Fatalf("CoverageAt(4) = %v", got)
	}
	if got := wc.CountAtLeast(2); got != 2 {
		t.Fatalf("CountAtLeast(2) = %v", got)
	}
	if got := wc.IndicesAtLeast(4); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("IndicesAtLeast(4) = %v", got)
	}
	if got := wc.MaxFinite(); got != 4 {
		t.Fatalf("MaxFinite = %v", got)
	}
	vals, counts := wc.Histogram(1)
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 4 || counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("Histogram = %v %v", vals, counts)
	}
}

// TestWorstCaseWorkersDeterministic pins the §5 invariant for the
// worst-case stage: the Workers knob changes wall-clock time only, and
// workers=1 is the exact serial path (no hidden GOMAXPROCS fan-out).
func TestWorstCaseWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		u := randomUniverse(rng, 128, 12, 30)
		want := WorstCaseWorkers(u, 1)
		for _, workers := range []int{2, 8, 0} {
			got := WorstCaseWorkers(u, workers)
			for j := range want.NMin {
				if got.NMin[j] != want.NMin[j] {
					t.Fatalf("trial %d workers=%d: nmin[%d] = %d, want %d",
						trial, workers, j, got.NMin[j], want.NMin[j])
				}
			}
		}
	}
}

func TestEmptyUntargetedCoverage(t *testing.T) {
	wc := WorstCaseWorkers(&Universe{Size: 4, Targets: []Fault{{Name: "f", T: bitset.FromMembers(4, 0)}}}, 0)
	if wc.CoverageAt(1) != 1 {
		t.Fatal("vacuous coverage should be 1")
	}
}

// checkAgainstNMin compares WorstCaseWorkers at one and three workers with
// the direct definition, NMin(g, u.Targets), on every untargeted fault,
// and returns the NMin values.
func checkAgainstNMin(t *testing.T, label string, u *Universe) []int {
	t.Helper()
	want := make([]int, len(u.Untargeted))
	sim.ParallelFor(0, len(want), func(j int) { want[j] = NMin(u.Untargeted[j], u.Targets) })
	for _, workers := range []int{1, 3} {
		got := WorstCaseWorkers(u, workers).NMin
		if len(got) != len(want) {
			t.Fatalf("%s workers=%d: %d results for %d faults", label, workers, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s workers=%d: nmin(%s) = %d, want %d",
					label, workers, u.Untargeted[j].Name, got[j], want[j])
			}
		}
	}
	return want
}

// diffWindows returns the untargeted faults the embedded differential test
// checks: all of them when there are at most 400, else 4 windows of 100
// consecutive faults spread evenly over the enumeration. Consecutive
// faults share lines, so within a window the witness seeds work as in a
// full run, and each window straddles seed blocks.
func diffWindows(ds []fault.Descriptor) []fault.Descriptor {
	const windows, width = 4, 100
	if len(ds) <= windows*width {
		return ds
	}
	var out []fault.Descriptor
	for w := 0; w < windows; w++ {
		lo := w * (len(ds) - width) / (windows - 1)
		out = append(out, ds[lo:lo+width]...)
	}
	return out
}

// TestWorstCaseMatchesNMinOnEmbeddedCircuits runs the differential check
// on real T-sets: every embedded circuit with at most 12 inputs (the
// benchmark surrogates and the .bench samples), under every fault model,
// with the full target set and windows of the untargeted faults
// (diffWindows). The pair-space transition model is checked up to 8
// inputs: at 12 its T-sets take 2 MiB each.
func TestWorstCaseMatchesNMinOnEmbeddedCircuits(t *testing.T) {
	var circuits []*circuit.Circuit
	for _, b := range bench.All() {
		if b.TotalInputs() > 12 {
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
		if c.NumInputs() <= 12 {
			circuits = append(circuits, c)
		}
	}
	for _, id := range fault.ModelIDs() {
		m, err := fault.Resolve(id)
		if err != nil {
			t.Fatal(err)
		}
		build, err := sim.ModelTSetsFor(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range circuits {
			if m.Space() == fault.VectorPair && c.NumInputs() > 8 {
				continue
			}
			e, err := sim.RunWorkers(c, 0)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			targets := fault.EnumerateSet(m, c, fault.TargetSet)
			untargeted := diffWindows(fault.EnumerateSet(m, c, fault.UntargetedSet))
			ts, err := build(e, targets, untargeted, func(string) {})
			if err != nil {
				t.Fatalf("%s/%s: %v", id, c.Name, err)
			}
			u, err := AssembleUniverse(c, m, targets, ts)
			if err != nil {
				t.Fatalf("%s/%s: %v", id, c.Name, err)
			}
			checkAgainstNMin(t, id+"/"+c.Name, &u.Universe)
		}
	}
}

// edgeUniverse builds a universe over size vectors with nG untargeted
// faults and the shapes the sparse slab and the seeds must handle: an
// empty T(f), a duplicated target, T(f) = U, T(g) = U, an empty T(g),
// and untargeted faults built around a target's T-set (supersets, which
// give nmin = 1, and near misses, which do not).
func edgeUniverse(rng *rand.Rand, size, nG int) *Universe {
	randSet := func(density float64) *bitset.Set {
		s := bitset.New(size)
		for v := 0; v < size; v++ {
			if rng.Float64() < density {
				s.Add(v)
			}
		}
		return s
	}
	full := bitset.New(size)
	full.Fill()
	u := &Universe{Size: size}
	addT := func(s *bitset.Set) {
		u.Targets = append(u.Targets, Fault{Name: fmt.Sprintf("f%d", len(u.Targets)), T: s})
	}
	addT(bitset.New(size))
	for i := 0; i < 6; i++ {
		addT(randSet([]float64{0.02, 0.1, 0.3, 0.6}[i%4]))
	}
	addT(u.Targets[3].T.Clone())
	addT(full)
	for j := 0; j < nG; j++ {
		var s *bitset.Set
		switch f := u.Targets[1+rng.Intn(len(u.Targets)-1)].T; j % 6 {
		case 0:
			s = full.Clone()
		case 1:
			s = f.Clone()
			s.UnionWith(randSet(0.05))
		case 2:
			s = f.Clone()
			if size > 0 {
				s.Remove(rng.Intn(size))
			}
			s.UnionWith(randSet(0.05))
		case 3:
			s = bitset.New(size)
		default:
			s = randSet([]float64{0.03, 0.2}[j%2])
		}
		u.Untargeted = append(u.Untargeted, Fault{Name: fmt.Sprintf("g%d", j), T: s})
	}
	return u
}

// TestWorstCaseMatchesNMinOnEdgeUniverses runs the differential check on
// hand-built universes at the word boundaries of U and at untargeted
// counts on both sides of the 64-fault seed block.
func TestWorstCaseMatchesNMinOnEdgeUniverses(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, size := range []int{1, 63, 64, 65, 130} {
		for _, nG := range []int{0, 1, 63, 64, 65, 129} {
			u := edgeUniverse(rng, size, nG)
			checkAgainstNMin(t, fmt.Sprintf("|U|=%d |G|=%d", size, nG), u)
		}
	}
}

// fuzzUniverse decodes bytes into a universe of at most 8 targets and 70
// untargeted faults over at most 200 vectors. Three header bytes pick the
// sizes; each fault then takes an op byte and, where the op needs them,
// ⌈|U|/8⌉ bytes of raw members per raw set. The ops build raw, sparse,
// empty and full sets, and supersets and subsets of an earlier target, so
// duplicates, nmin = 1 witnesses and near misses are a few bytes away.
// Missing bytes read as zero.
func fuzzUniverse(data []byte) *Universe {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	size := 1 + next()%200
	nT, nG := next()%9, next()%71
	raw := func() *bitset.Set {
		s := bitset.New(size)
		for lo := 0; lo < size; lo += 8 {
			b := next()
			for i := 0; i < 8 && lo+i < size; i++ {
				if b>>i&1 != 0 {
					s.Add(lo + i)
				}
			}
		}
		return s
	}
	u := &Universe{Size: size}
	decode := func() *bitset.Set {
		op := next()
		s := bitset.New(size)
		switch op % 6 {
		case 0:
			s = raw()
		case 1:
			s = raw()
			s.IntersectWith(raw())
		case 2:
		case 3:
			s.Fill()
		default:
			if len(u.Targets) == 0 {
				return raw()
			}
			s = u.Targets[op/6%len(u.Targets)].T.Clone()
			if op%6 == 4 {
				r := raw()
				r.IntersectWith(raw())
				s.UnionWith(r)
			} else {
				s.IntersectWith(raw())
			}
		}
		return s
	}
	for i := 0; i < nT; i++ {
		u.Targets = append(u.Targets, Fault{Name: fmt.Sprintf("f%d", i), T: decode()})
	}
	for j := 0; j < nG; j++ {
		u.Untargeted = append(u.Untargeted, Fault{Name: fmt.Sprintf("g%d", j), T: decode()})
	}
	return u
}

// FuzzWorstCase checks WorstCaseWorkers against the direct definition on
// fuzzer-built universes (fuzzUniverse).
func FuzzWorstCase(f *testing.F) {
	for i, hdr := range [][3]byte{{15, 7, 1}, {63, 8, 70}, {64, 8, 65}, {0, 3, 70}, {199, 8, 64}, {127, 5, 63}} {
		data := make([]byte, 4096)
		rand.New(rand.NewSource(int64(i))).Read(data)
		copy(data, hdr[:])
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstNMin(t, "fuzz", fuzzUniverse(data))
	})
}
