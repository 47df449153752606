package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if !s.IsEmpty() {
		t.Fatal("new set should be empty")
	}
	if s.Count() != 0 {
		t.Fatalf("Count() = %d, want 0", s.Count())
	}
	if s.Size() != 100 {
		t.Fatalf("Size() = %d, want 100", s.Size())
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Fatalf("fresh set contains %d", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("set does not contain %d after Add", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count() = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("set contains 64 after Remove")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count() = %d, want 7", got)
	}
}

func TestAddIdempotent(t *testing.T) {
	s := New(10)
	s.Add(3)
	s.Add(3)
	if got := s.Count(); got != 1 {
		t.Fatalf("Count() = %d, want 1", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(*Set){
		func(s *Set) { s.Add(-1) },
		func(s *Set) { s.Add(10) },
		func(s *Set) { s.Contains(10) },
		func(s *Set) { s.Remove(-1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn(New(10))
		}()
	}
}

func TestUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on universe mismatch")
		}
	}()
	New(10).IntersectWith(New(11))
}

func TestFill(t *testing.T) {
	for _, size := range []int{1, 63, 64, 65, 128, 200} {
		s := New(size)
		s.Fill()
		if got := s.Count(); got != size {
			t.Fatalf("size %d: Count() after Fill = %d", size, got)
		}
		// No stray bits beyond the universe: Clone+Fill+Difference is empty.
		u := New(size)
		u.Fill()
		u.DifferenceWith(s)
		if !u.IsEmpty() {
			t.Fatalf("size %d: difference of two full sets not empty", size)
		}
	}
}

func TestSetWordMasksTail(t *testing.T) {
	s := New(70) // two words, 6 live bits in word 1
	s.SetWord(1, ^uint64(0))
	if got := s.Count(); got != 6 {
		t.Fatalf("Count() = %d, want 6 (tail bits must be masked)", got)
	}
	s.SetWord(0, ^uint64(0))
	if got := s.Count(); got != 70 {
		t.Fatalf("Count() = %d, want 70", got)
	}
}

// union returns a ∪ b as a new set, the way production code builds one.
func union(a, b *Set) *Set {
	c := a.Clone()
	c.UnionWith(b)
	return c
}

func TestBooleanOps(t *testing.T) {
	a := FromMembers(16, 1, 2, 3, 8)
	b := FromMembers(16, 2, 3, 4, 9)

	if got := a.Intersection(b).Members(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("Intersection = %v, want [2 3]", got)
	}
	if got := union(a, b).Count(); got != 6 {
		t.Fatalf("Union count = %d, want 6", got)
	}
	if got := a.Difference(b).Members(); len(got) != 2 || got[0] != 1 || got[1] != 8 {
		t.Fatalf("Difference = %v, want [1 8]", got)
	}
	if got := a.IntersectionCount(b); got != 2 {
		t.Fatalf("IntersectionCount = %d, want 2", got)
	}
	if !a.Intersects(b) {
		t.Fatal("a should intersect b")
	}
	if a.Intersects(FromMembers(16, 0, 15)) {
		t.Fatal("a should not intersect {0,15}")
	}
}

func TestEqualSubset(t *testing.T) {
	a := FromMembers(16, 1, 2)
	b := FromMembers(16, 1, 2)
	c := FromMembers(16, 1, 2, 3)
	if !a.Equal(b) {
		t.Fatal("a should equal b")
	}
	if a.Equal(c) {
		t.Fatal("a should not equal c")
	}
	if a.Equal(FromMembers(17, 1, 2)) {
		t.Fatal("different universes are never equal")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromMembers(16, 1)
	b := a.Clone()
	b.Add(2)
	if a.Contains(2) {
		t.Fatal("Clone is not independent")
	}
}

func TestForEachOrder(t *testing.T) {
	a := FromMembers(200, 199, 0, 64, 63, 100)
	var got []int
	a.ForEach(func(i int) { got = append(got, i) })
	want := []int{0, 63, 64, 100, 199}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
}

func TestNth(t *testing.T) {
	a := FromMembers(200, 5, 70, 130, 199)
	for i, want := range []int{5, 70, 130, 199} {
		if got := a.Nth(i); got != want {
			t.Fatalf("Nth(%d) = %d, want %d", i, got, want)
		}
	}
	if got := a.Nth(4); got != -1 {
		t.Fatalf("Nth(4) = %d, want -1", got)
	}
	if got := a.Nth(-1); got != -1 {
		t.Fatalf("Nth(-1) = %d, want -1", got)
	}
}

func TestString(t *testing.T) {
	if got := FromMembers(16, 6, 7).String(); got != "{6, 7}" {
		t.Fatalf("String() = %q", got)
	}
	if got := New(4).String(); got != "{}" {
		t.Fatalf("String() = %q", got)
	}
}

// randomSet builds a random set and its reference map representation.
func randomSet(rng *rand.Rand, size int) (*Set, map[int]bool) {
	s := New(size)
	ref := make(map[int]bool)
	n := rng.Intn(size)
	for i := 0; i < n; i++ {
		v := rng.Intn(size)
		s.Add(v)
		ref[v] = true
	}
	return s, ref
}

func TestQuickAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(300)
		a, ra := randomSet(rng, size)
		b, rb := randomSet(rng, size)

		inter := a.Intersection(b)
		un := union(a, b)
		diff := a.Difference(b)
		for i := 0; i < size; i++ {
			if inter.Contains(i) != (ra[i] && rb[i]) {
				t.Fatalf("trial %d: intersection wrong at %d", trial, i)
			}
			if un.Contains(i) != (ra[i] || rb[i]) {
				t.Fatalf("trial %d: union wrong at %d", trial, i)
			}
			if diff.Contains(i) != (ra[i] && !rb[i]) {
				t.Fatalf("trial %d: difference wrong at %d", trial, i)
			}
		}
		if a.IntersectionCount(b) != inter.Count() {
			t.Fatalf("trial %d: IntersectionCount disagrees with materialized count", trial)
		}
		if a.Intersects(b) != (inter.Count() > 0) {
			t.Fatalf("trial %d: Intersects disagrees", trial)
		}
	}
}

func TestQuickProperties(t *testing.T) {
	// De Morgan-ish and algebraic identities on a fixed universe, driven by
	// testing/quick generating member lists.
	const size = 190
	mk := func(xs []uint16) *Set {
		s := New(size)
		for _, x := range xs {
			s.Add(int(x) % size)
		}
		return s
	}

	commutative := func(xs, ys []uint16) bool {
		a, b := mk(xs), mk(ys)
		return a.Intersection(b).Equal(b.Intersection(a)) &&
			union(a, b).Equal(union(b, a))
	}
	if err := quick.Check(commutative, nil); err != nil {
		t.Error(err)
	}

	absorption := func(xs, ys []uint16) bool {
		a, b := mk(xs), mk(ys)
		return union(a, a.Intersection(b)).Equal(a) &&
			a.Intersection(union(a, b)).Equal(a)
	}
	if err := quick.Check(absorption, nil); err != nil {
		t.Error(err)
	}

	inclusionExclusion := func(xs, ys []uint16) bool {
		a, b := mk(xs), mk(ys)
		return union(a, b).Count() == a.Count()+b.Count()-a.IntersectionCount(b)
	}
	if err := quick.Check(inclusionExclusion, nil); err != nil {
		t.Error(err)
	}

	differencePartition := func(xs, ys []uint16) bool {
		a, b := mk(xs), mk(ys)
		// a = (a−b) ⊎ (a∩b)
		d := a.Difference(b)
		i := a.Intersection(b)
		return d.Count()+i.Count() == a.Count() && !d.Intersects(i) || (d.IsEmpty() || i.IsEmpty())
	}
	if err := quick.Check(differencePartition, nil); err != nil {
		t.Error(err)
	}
}

func TestNthUniformCoverage(t *testing.T) {
	// Nth(k) for k in [0, Count) must enumerate exactly Members().
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		s, _ := randomSet(rng, 1+rng.Intn(500))
		members := s.Members()
		for k, want := range members {
			if got := s.Nth(k); got != want {
				t.Fatalf("Nth(%d) = %d, want %d", k, got, want)
			}
		}
		if got := s.Nth(len(members)); got != -1 {
			t.Fatalf("Nth past end = %d, want -1", got)
		}
	}
}

func TestNewBatchIndependentSets(t *testing.T) {
	sets := NewBatch(130, 5)
	if len(sets) != 5 {
		t.Fatalf("NewBatch returned %d sets, want 5", len(sets))
	}
	for i, s := range sets {
		if s.Size() != 130 || !s.IsEmpty() {
			t.Fatalf("set %d: size %d empty=%v", i, s.Size(), s.IsEmpty())
		}
	}
	// Mutations must not leak across slab neighbors, including via
	// Fill's full-word writes right at the slab boundaries.
	sets[1].Fill()
	sets[3].Add(0)
	sets[3].Add(129)
	if !sets[0].IsEmpty() || !sets[2].IsEmpty() || !sets[4].IsEmpty() {
		t.Fatal("mutating one batch set leaked into a neighbor")
	}
	if got := sets[1].Count(); got != 130 {
		t.Fatalf("filled batch set has %d members, want 130", got)
	}
	if got := sets[3].Members(); len(got) != 2 || got[0] != 0 || got[1] != 129 {
		t.Fatalf("batch set members = %v, want [0 129]", got)
	}
	// Batch sets interoperate with ordinary sets.
	if sets[3].IntersectionCount(sets[1]) != 2 || sets[1].IntersectionCount(New(130)) != 0 {
		t.Fatal("batch sets do not interoperate with New sets")
	}
	if NewBatch(64, 0) == nil {
		t.Fatal("NewBatch(_, 0) = nil, want empty slice")
	}
}

func TestRangeStoresMatchSetWord(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(400)
		words := (size + 63) / 64
		lo := rng.Intn(words)
		n := 1 + rng.Intn(words-lo)
		p := make([]uint64, n)
		m := make([]uint64, n)
		for i := range p {
			p[i], m[i] = rng.Uint64(), rng.Uint64()
		}

		type op struct {
			name  string
			bulk  func(s *Set)
			wordy func(i int) uint64
		}
		ops := []op{
			{"SetRange", func(s *Set) { s.SetRange(lo, p) }, func(i int) uint64 { return p[i] }},
			{"SetRangeNot", func(s *Set) { s.SetRangeNot(lo, p) }, func(i int) uint64 { return ^p[i] }},
			{"SetRangeAnd", func(s *Set) { s.SetRangeAnd(lo, p, m) }, func(i int) uint64 { return p[i] & m[i] }},
			{"SetRangeAndNot", func(s *Set) { s.SetRangeAndNot(lo, p, m) }, func(i int) uint64 { return p[i] &^ m[i] }},
		}
		for _, o := range ops {
			got := New(size)
			o.bulk(got)
			want := New(size)
			for i := 0; i < n; i++ {
				want.SetWord(lo+i, o.wordy(i))
			}
			if !got.Equal(want) {
				t.Fatalf("size %d lo %d n %d: %s diverges from SetWord reference", size, lo, n, o.name)
			}
		}

		// SplitRangeAnd must equal the And/AndNot pair it replaces.
		sa0, sa1 := New(size), New(size)
		SplitRangeAnd(sa0, sa1, lo, p, m)
		w0, w1 := New(size), New(size)
		w0.SetRangeAnd(lo, p, m)
		w1.SetRangeAndNot(lo, p, m)
		if !sa0.Equal(w0) || !sa1.Equal(w1) {
			t.Fatalf("size %d lo %d n %d: SplitRangeAnd diverges from And/AndNot pair", size, lo, n)
		}
	}
}

func TestRangeStoresMaskTail(t *testing.T) {
	// A full-word store into the final partial word must not create
	// phantom members beyond the universe.
	s := New(70) // 2 words, 6 live bits in the tail
	ones := []uint64{^uint64(0), ^uint64(0)}
	s.SetRange(0, ones)
	if got := s.Count(); got != 70 {
		t.Fatalf("SetRange all-ones: %d members, want 70", got)
	}
	s.Clear()
	s.SetRangeNot(0, make([]uint64, 2))
	if got := s.Count(); got != 70 {
		t.Fatalf("SetRangeNot of zeros: %d members, want 70", got)
	}
	a, b := New(70), New(70)
	SplitRangeAnd(a, b, 0, ones, make([]uint64, 2))
	if a.Count() != 0 || b.Count() != 70 {
		t.Fatalf("SplitRangeAnd tail: %d/%d members, want 0/70", a.Count(), b.Count())
	}
}
