package ndetect

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ndetect/internal/bench"
	"ndetect/internal/bitset"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/sim"
)

// TestProcedure1NDetectionInvariant: after iteration n, every test set
// detects every target fault min(n, N(f)) times (the defining property of
// Procedure 1 under Definition 1).
func TestProcedure1NDetectionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		u := randomUniverse(rng, 64+rng.Intn(128), 12, 4)
		res, err := Procedure1(u, Procedure1Options{NMax: 6, K: 25, Seed: int64(trial), KeepTestSets: true})
		if err != nil {
			t.Fatalf("Procedure1: %v", err)
		}
		for n := 1; n <= 6; n++ {
			for k, tk := range res.TestSets[n-1] {
				if !tk.IsNDetection(n, u.Targets) {
					t.Fatalf("trial %d: T%d after iteration %d is not an %d-detection test set", trial, k, n, n)
				}
			}
		}
	}
}

// TestProcedure1Deterministic: same seed → identical results regardless of
// worker count.
func TestProcedure1Deterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	u := randomUniverse(rng, 128, 15, 6)
	run := func(workers int) *Procedure1Result {
		res, err := Procedure1(u, Procedure1Options{NMax: 5, K: 40, Seed: 77, Workers: workers, KeepTestSets: true})
		if err != nil {
			t.Fatalf("Procedure1: %v", err)
		}
		return res
	}
	a, b := run(1), run(8)
	for n := 0; n < 5; n++ {
		for j := range a.Detected[n] {
			if a.Detected[n][j] != b.Detected[n][j] {
				t.Fatalf("Detected[%d][%d]: %d vs %d", n, j, a.Detected[n][j], b.Detected[n][j])
			}
		}
		if a.SetSizeSum[n] != b.SetSizeSum[n] {
			t.Fatalf("SetSizeSum[%d]: %d vs %d", n, a.SetSizeSum[n], b.SetSizeSum[n])
		}
		for k := range a.TestSets[n] {
			va, vb := a.TestSets[n][k].Vectors(), b.TestSets[n][k].Vectors()
			if len(va) != len(vb) {
				t.Fatalf("test set %d at n=%d: %d vs %d tests", k, n+1, len(va), len(vb))
			}
			for i := range va {
				if va[i] != vb[i] {
					t.Fatalf("test set %d differs at position %d", k, i)
				}
			}
		}
	}
}

// TestProcedure1Monotone: d(n,g) is non-decreasing in n — test sets only
// grow across iterations.
func TestProcedure1Monotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := randomUniverse(rng, 256, 20, 10)
	res, err := Procedure1(u, Procedure1Options{NMax: 8, K: 50, Seed: 5})
	if err != nil {
		t.Fatalf("Procedure1: %v", err)
	}
	for n := 1; n < 8; n++ {
		for j := range res.Detected[n] {
			if res.Detected[n][j] < res.Detected[n-1][j] {
				t.Fatalf("d(%d,g%d)=%d < d(%d,g%d)=%d", n+1, j, res.Detected[n][j], n, j, res.Detected[n-1][j])
			}
		}
		if res.SetSizeSum[n] < res.SetSizeSum[n-1] {
			t.Fatal("test set sizes shrank")
		}
	}
}

// TestProcedure1GrowthRoughlyLinear: the paper's observation motivating the
// analysis — "the size of a compact n-detection test set increases
// approximately linearly with n". Random sets are not compact but still must
// grow superlinearly-bounded; we assert growth is at least monotone and that
// the increment from n=1 to nmax is substantial.
func TestProcedure1SetSizesGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	u := randomUniverse(rng, 512, 30, 5)
	res, err := Procedure1(u, Procedure1Options{NMax: 10, K: 20, Seed: 9})
	if err != nil {
		t.Fatalf("Procedure1: %v", err)
	}
	if res.MeanSetSize(10) <= res.MeanSetSize(1) {
		t.Fatalf("mean size at n=10 (%v) not larger than at n=1 (%v)",
			res.MeanSetSize(10), res.MeanSetSize(1))
	}
}

// TestProcedure1ExhaustsSmallFaults: a fault with N(f) < n ends up with its
// entire T(f) in the test set.
func TestProcedure1ExhaustsSmallFaults(t *testing.T) {
	size := 32
	u := &Universe{
		Size: size,
		Targets: []Fault{
			{Name: "tiny", T: bitset.FromMembers(size, 3, 17)},
			{Name: "big", T: bitset.FromMembers(size, 0, 1, 2, 4, 5, 6, 7, 8, 9, 10)},
		},
		Untargeted: []Fault{{Name: "g", T: bitset.FromMembers(size, 17)}},
	}
	res, err := Procedure1(u, Procedure1Options{NMax: 5, K: 10, Seed: 1, KeepTestSets: true})
	if err != nil {
		t.Fatalf("Procedure1: %v", err)
	}
	for _, tk := range res.TestSets[4] {
		if !tk.Contains(3) || !tk.Contains(17) {
			t.Fatal("T(tiny) not fully included at n=5 > N(tiny)=2")
		}
	}
	// g with T(g)={17} ⊂ T(tiny) must be detected by every 2-detection set
	// (nmin(g) = 2-1+1 = 2).
	if res.Detected[1][0] != res.K {
		t.Fatalf("d(2,g) = %d, want K=%d", res.Detected[1][0], res.K)
	}
}

// TestProcedure1UndetectableTargetIgnored: targets with empty T-sets are
// skipped gracefully.
func TestProcedure1UndetectableTargetIgnored(t *testing.T) {
	size := 16
	u := &Universe{
		Size: size,
		Targets: []Fault{
			{Name: "undet", T: bitset.New(size)},
			{Name: "ok", T: bitset.FromMembers(size, 1, 2)},
		},
		Untargeted: []Fault{{Name: "g", T: bitset.FromMembers(size, 2)}},
	}
	res, err := Procedure1(u, Procedure1Options{NMax: 3, K: 5, Seed: 2, KeepTestSets: true})
	if err != nil {
		t.Fatalf("Procedure1: %v", err)
	}
	for _, tk := range res.TestSets[2] {
		if tk.Len() != 2 {
			t.Fatalf("test set has %d vectors, want 2 (T(ok) exhausted)", tk.Len())
		}
	}
}

func TestProcedure1OptionValidation(t *testing.T) {
	u := &Universe{Size: 4, Targets: []Fault{{Name: "f", T: bitset.FromMembers(4, 0)}}}
	if _, err := Procedure1(u, Procedure1Options{Definition: Def2}); err == nil {
		t.Fatal("Def2 without checker accepted")
	}
	if _, err := Procedure1(u, Procedure1Options{Definition: 3}); err == nil {
		t.Fatal("unknown definition accepted")
	}
	// Universe mismatch.
	bad := &Universe{Size: 4, Targets: []Fault{{Name: "f", T: bitset.FromMembers(8, 0)}}}
	if _, err := Procedure1(bad, Procedure1Options{}); err == nil {
		t.Fatal("invalid universe accepted")
	}
}

func TestPickRandomOutsideUniform(t *testing.T) {
	size := 64
	tset := bitset.FromMembers(size, 1, 5, 9, 13)
	tk := NewTestSet(size)
	tk.Add(5)
	rng := rand.New(rand.NewSource(0))
	twin := rand.New(rand.NewSource(0))
	counts := map[int]int{}
	for i := 0; i < 3000; i++ {
		v, ok := pickRandomOutside(tset, tk, rng)
		if !ok {
			t.Fatal("pick failed")
		}
		if v == 5 {
			t.Fatal("picked a vector already in Tk")
		}
		// Procedure1's draw: the same single Intn(c), the same vector.
		if w := nthOutside(tset.Words(), tk.member.Words(), twin.Intn(3)); w != v {
			t.Fatalf("draw %d: in-word select picked %d, reference %d", i, w, v)
		}
		counts[v]++
	}
	if len(counts) != 3 {
		t.Fatalf("support = %v, want {1,9,13}", counts)
	}
	for v, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("count[%d] = %d, not near uniform 1000", v, c)
		}
	}
	// Exhausted difference.
	tk.Add(1)
	tk.Add(9)
	tk.Add(13)
	if _, ok := pickRandomOutside(tset, tk, rng); ok {
		t.Fatal("pick succeeded on empty difference")
	}

	// Every index of the difference, on sets spanning word boundaries.
	for _, size := range []int{1, 64, 65, 130, 200} {
		for trial := 0; trial < 20; trial++ {
			a, b := bitset.New(size), bitset.New(size)
			for v := 0; v < size; v++ {
				if rng.Intn(2) == 0 {
					a.Add(v)
				}
				if rng.Intn(3) == 0 {
					b.Add(v)
				}
			}
			diff := a.Difference(b)
			for r := 0; r < diff.Count(); r++ {
				if got, want := nthOutside(a.Words(), b.Words(), r), diff.Nth(r); got != want {
					t.Fatalf("|U|=%d r=%d: in-word select %d, Nth %d", size, r, got, want)
				}
			}
		}
	}
}

func TestThresholdCountsAndSummaries(t *testing.T) {
	// Construct a result by hand: K=10, two faults with d = 10 and 4.
	r := &Procedure1Result{NMax: 1, K: 10, Detected: [][]int{{10, 4}}, SetSizeSum: []int64{50}}
	counts := r.ThresholdCounts(1, []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0})
	// p values: 1.0 and 0.4.
	want := []int{1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("ThresholdCounts = %v, want %v", counts, want)
		}
	}
	p, j := r.MinP(1)
	if j != 1 || p != 0.4 {
		t.Fatalf("MinP = %v,%d", p, j)
	}
	if got := r.ExpectedEscapes(1); got != 0.6 {
		t.Fatalf("ExpectedEscapes = %v", got)
	}
	if got := r.MeanSetSize(1); got != 5 {
		t.Fatalf("MeanSetSize = %v", got)
	}
}

func TestSubsetUntargeted(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	u := randomUniverse(rng, 64, 5, 10)
	s := u.SubsetUntargeted([]int{2, 7})
	if len(s.Untargeted) != 2 {
		t.Fatalf("subset size = %d", len(s.Untargeted))
	}
	if !s.Untargeted[0].T.Equal(u.Untargeted[2].T) || !s.Untargeted[1].T.Equal(u.Untargeted[7].T) {
		t.Fatal("subset picked wrong faults")
	}
	if s.Size != u.Size || len(s.Targets) != len(u.Targets) {
		t.Fatal("subset changed universe shape")
	}
}

func TestMixSpreads(t *testing.T) {
	seen := map[int64]bool{}
	for k := int64(0); k < 1000; k++ {
		v := mix(42, k)
		if seen[v] {
			t.Fatalf("mix collision at k=%d", k)
		}
		seen[v] = true
	}
}

// ---- The reference construction ------------------------------------------

// referenceProcedure1 is the direct construction Procedure1 replaced, kept
// as the differential tests' oracle: exact Definition 1 counts kept up to
// date through a vector → targets reverse index (fAt), a draw that clones
// T(f) − Tk and indexes it with Nth, a Definition 2 pick over the
// difference set's Members, and a snapshot of the detected untargeted
// faults after every iteration.
func referenceProcedure1(u *Universe, opts Procedure1Options) (*Procedure1Result, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if err := u.Validate(); err != nil {
		return nil, err
	}

	res := &Procedure1Result{
		NMax:       opts.NMax,
		K:          opts.K,
		Detected:   make([][]int, opts.NMax),
		SetSizeSum: make([]int64, opts.NMax),
	}
	for n := range res.Detected {
		res.Detected[n] = make([]int, len(u.Untargeted))
	}
	if opts.KeepTestSets {
		res.TestSets = make([][]*TestSet, opts.NMax)
		for n := range res.TestSets {
			res.TestSets[n] = make([]*TestSet, opts.K)
		}
	}

	gAt := make([][]int32, u.Size)
	for j, g := range u.Untargeted {
		g.Set().ForEach(func(v int) {
			gAt[v] = append(gAt[v], int32(j))
		})
	}
	fAt := make([][]int32, u.Size)
	for i, f := range u.Targets {
		f.T.ForEach(func(v int) {
			fAt[v] = append(fAt[v], int32(i))
		})
	}

	var mu sync.Mutex
	sim.ParallelFor(opts.Workers, opts.K, func(k int) {
		referenceRunOne(u, &opts, k, fAt, gAt, res, &mu)
	})
	return res, nil
}

func referenceRunOne(u *Universe, opts *Procedure1Options, k int, fAt, gAt [][]int32, res *Procedure1Result, mu *sync.Mutex) {
	rng := rand.New(rand.NewSource(mix(opts.Seed, int64(k))))
	tk := NewTestSet(u.Size)
	def1Count := make([]int, len(u.Targets))
	gDetected := make([]bool, len(u.Untargeted))

	var d2 *def2State
	if opts.Definition == Def2 {
		d2 = newDef2State(len(u.Targets), opts.Checker)
	}

	add := func(v int) {
		if !tk.Add(v) {
			return
		}
		for _, fi := range fAt[v] {
			def1Count[fi]++
		}
		for _, gj := range gAt[v] {
			gDetected[gj] = true
		}
	}

	detectedAtN := make([][]int32, opts.NMax)
	sizeAtN := make([]int, opts.NMax)

	for n := 1; n <= opts.NMax; n++ {
		for fi := range u.Targets {
			f := &u.Targets[fi]
			switch opts.Definition {
			case Def1:
				if def1Count[fi] >= n {
					continue
				}
				v, ok := pickRandomOutside(f.T, tk, rng)
				if ok {
					add(v)
				}
			case Def2:
				if d2.countUpTo(fi, n, f, tk) >= n {
					continue
				}
				if v, ok := referencePickDistinct(d2, fi, f, tk, rng); ok {
					add(v)
					continue
				}
				if def1Count[fi] >= n {
					continue
				}
				if v, ok := pickRandomOutside(f.T, tk, rng); ok {
					add(v)
				}
			}
		}
		var dets []int32
		for j, d := range gDetected {
			if d {
				dets = append(dets, int32(j))
			}
		}
		detectedAtN[n-1] = dets
		sizeAtN[n-1] = tk.Len()
		if opts.KeepTestSets {
			mu.Lock()
			res.TestSets[n-1][k] = tk.Clone()
			mu.Unlock()
		}
	}

	mu.Lock()
	for n := 0; n < opts.NMax; n++ {
		for _, j := range detectedAtN[n] {
			res.Detected[n][j]++
		}
		res.SetSizeSum[n] += int64(sizeAtN[n])
	}
	mu.Unlock()
}

// pickRandomOutside selects a uniformly random member of T(f) − Tk.
func pickRandomOutside(t *bitset.Set, tk *TestSet, rng *rand.Rand) (int, bool) {
	diff := t.Difference(tk.member)
	c := diff.Count()
	if c == 0 {
		return 0, false
	}
	return diff.Nth(rng.Intn(c)), true
}

// referencePickDistinct is def2State.pickDistinct over the difference
// set's Members, scanning candidates one Distinct call at a time.
func referencePickDistinct(s *def2State, i int, f *Fault, tk *TestSet, rng *rand.Rand) (int, bool) {
	diff := f.T.Difference(tk.member)
	cands := diff.Members()
	rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
	if len(cands) > pickScanCap {
		cands = cands[:pickScanCap]
	}
	for _, v := range cands {
		if s.isDistinct(i, v, s.distinct[i]) {
			return v, true
		}
	}
	return 0, false
}

// scalarOnly hides a checker's batched fast paths, so the reference
// decides every pair through Distinct alone.
type scalarOnly struct{ c DistinctChecker }

func (s scalarOnly) Distinct(i, t1, t2 int) bool { return s.c.Distinct(i, t1, t2) }

// hashChecker is a deterministic, symmetric Definition 2 oracle for
// universes without a circuit: about two thirds of the pairs are distinct.
type hashChecker struct{}

func (hashChecker) Distinct(i, t1, t2 int) bool {
	return t1 != t2 && (7*(t1+t2)+i)%3 != 0
}

// sameProcedure1 fails the test unless got and want agree on every count
// and, when kept, on every test set's vectors in insertion order.
func sameProcedure1(t *testing.T, label string, got, want *Procedure1Result) {
	t.Helper()
	for n := range want.Detected {
		if got.SetSizeSum[n] != want.SetSizeSum[n] {
			t.Fatalf("%s: SetSizeSum[%d] = %d, reference %d", label, n, got.SetSizeSum[n], want.SetSizeSum[n])
		}
		for j := range want.Detected[n] {
			if got.Detected[n][j] != want.Detected[n][j] {
				t.Fatalf("%s: Detected[%d][%d] = %d, reference %d", label, n, j, got.Detected[n][j], want.Detected[n][j])
			}
		}
		if want.TestSets == nil {
			continue
		}
		for k := range want.TestSets[n] {
			gv, wv := got.TestSets[n][k].Vectors(), want.TestSets[n][k].Vectors()
			if len(gv) != len(wv) {
				t.Fatalf("%s: set %d after iteration %d has %d tests, reference %d", label, k, n+1, len(gv), len(wv))
			}
			for i := range wv {
				if gv[i] != wv[i] {
					t.Fatalf("%s: set %d after iteration %d differs at test %d: %d, reference %d", label, k, n+1, i, gv[i], wv[i])
				}
			}
		}
	}
}

// checkAgainstReference runs Procedure1 at 1 and 3 workers and the
// reference at 1, and requires identical results.
func checkAgainstReference(t *testing.T, label string, u *Universe, opts Procedure1Options, refChecker DistinctChecker) {
	t.Helper()
	opts.KeepTestSets = true
	ref := opts
	ref.Workers = 1
	if refChecker != nil {
		ref.Checker = refChecker
	}
	want, err := referenceProcedure1(u, ref)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	for _, w := range []int{1, 3} {
		opts.Workers = w
		got, err := Procedure1(u, opts)
		if err != nil {
			t.Fatalf("%s: Procedure1: %v", label, err)
		}
		sameProcedure1(t, fmt.Sprintf("%s workers=%d", label, w), got, want)
	}
}

// TestProcedure1MatchesReferenceOnCircuits: on small embedded circuits,
// Procedure1 reproduces the reference construction exactly under
// Definition 1, and under Definition 2 with the circuit's own checker
// (against a reference that decides every pair through Distinct alone,
// on a fresh checker of its own).
func TestProcedure1MatchesReferenceOnCircuits(t *testing.T) {
	var circuits []*circuit.Circuit
	for _, name := range []string{"c17", "s27"} {
		c, err := circuit.EmbeddedBench(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	for _, name := range []string{"bbtas", "bbara", "lion"} {
		b, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("no benchmark %s", name)
		}
		r, err := b.SynthesizeDefault()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		circuits = append(circuits, r.Circuit)
	}
	for _, c := range circuits {
		u, err := BuildUniverse(c, fault.Default(), AnalyzeOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		checkAgainstReference(t, c.Name+"/def1", &u.Universe,
			Procedure1Options{NMax: 10, K: 12, Seed: 5}, nil)
		checkAgainstReference(t, c.Name+"/def2", &u.Universe,
			Procedure1Options{NMax: 6, K: 4, Seed: 6, Definition: Def2, Checker: NewCircuitCheckerFor(u)},
			scalarOnly{NewCircuitCheckerFor(u)})
	}
}

// TestProcedure1MatchesReferenceOnEdgeUniverses: hand-built universes at
// the word boundaries of U, with an empty T(f), T(f) = U and a duplicate
// target, from one set to deep n — far past the 256 a narrow
// first-detection counter would hold.
func TestProcedure1MatchesReferenceOnEdgeUniverses(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, size := range []int{1, 32, 64, 65, 130} {
		u := edgeUniverse(rng, size, 20)
		for _, nmax := range []int{1, 10, 300} {
			for _, k := range []int{1, 7} {
				label := fmt.Sprintf("|U|=%d NMax=%d K=%d", size, nmax, k)
				checkAgainstReference(t, label+"/def1", u,
					Procedure1Options{NMax: nmax, K: k, Seed: int64(size + nmax)}, nil)
				checkAgainstReference(t, label+"/def2", u,
					Procedure1Options{NMax: nmax, K: k, Seed: int64(size + nmax), Definition: Def2, Checker: hashChecker{}}, nil)
			}
		}
	}
}

// Section 2 implies Section 3: when nmin(g) ≤ n, every n-detection test set
// detects g, so Procedure 1 must report d(n,g) = K. Production runs
// Procedure 1 only on the faults with nmin(g) > n, so this runs it over
// the full G: Definition 1 on the handwritten surrogates plus bbara and
// opus, Definition 2 on the handwritten surrogates.
func TestProcedure1DetectsEveryGuaranteedFault(t *testing.T) {
	var hand []string
	for _, b := range bench.All() {
		if b.Handwritten {
			hand = append(hand, b.Name)
		}
	}
	checks := 0
	for _, def := range []Definition{Def1, Def2} {
		names := hand
		if def == Def1 {
			names = append(slices.Clip(hand), "bbara", "opus")
		}
		for _, name := range names {
			b, _ := bench.ByName(name)
			r, err := b.SynthesizeDefault()
			if err != nil {
				t.Fatal(err)
			}
			u, err := BuildUniverse(r.Circuit, fault.Default(), AnalyzeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wc := WorstCaseWorkers(&u.Universe, 0)
			opts := Procedure1Options{NMax: 10, K: 50, Seed: 1, Definition: def}
			if def == Def2 {
				opts.Checker = NewCircuitCheckerFor(u)
			}
			res, err := Procedure1(&u.Universe, opts)
			if err != nil {
				t.Fatal(err)
			}
			for n := 1; n <= opts.NMax; n++ {
				for j, nmin := range wc.NMin {
					if nmin > n {
						continue
					}
					checks++
					if d := res.Detected[n-1][j]; d != res.K {
						t.Errorf("%s def %d: %s has nmin %d but d(%d,g) = %d < K = %d",
							name, def, u.Untargeted[j].Name, nmin, n, d, res.K)
					}
				}
			}
		}
	}
	t.Logf("%d (n, g) checks with nmin(g) ≤ n", checks)
}
