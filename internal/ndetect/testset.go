package ndetect

import (
	"ndetect/internal/bitset"
)

// TestSet is an ordered, duplicate-free set of input vectors (the paper's
// Tk). Order is insertion order; membership queries are O(1) via the
// backing bitset.
type TestSet struct {
	vectors []int
	member  *bitset.Set
}

// NewTestSet returns an empty test set over a universe of the given size.
func NewTestSet(size int) *TestSet {
	return &TestSet{member: bitset.New(size)}
}

// Add inserts a vector; duplicates are ignored (the paper's test sets never
// duplicate tests). It reports whether the vector was new.
func (t *TestSet) Add(v int) bool {
	if t.member.Contains(v) {
		return false
	}
	t.member.Add(v)
	t.vectors = append(t.vectors, v)
	return true
}

// Contains reports membership.
func (t *TestSet) Contains(v int) bool { return t.member.Contains(v) }

// Len returns the number of tests.
func (t *TestSet) Len() int { return len(t.vectors) }

// Vectors returns the tests in insertion order. The slice is shared; do not
// modify.
func (t *TestSet) Vectors() []int { return t.vectors }

// Detections returns the Definition 1 detection count |T(f) ∩ T| of a
// fault. It allocates nothing, for a factored fault too.
func (t *TestSet) Detections(f Fault) int {
	return f.countIn(t.member)
}

// Detects reports whether the test set detects the fault at least once.
// It allocates nothing, for a factored fault too.
func (t *TestSet) Detects(f Fault) bool {
	return f.meets(t.member)
}

// reset empties the test set, keeping its storage.
func (t *TestSet) reset() {
	t.vectors = t.vectors[:0]
	t.member.Clear()
}

// Clone returns an independent copy.
func (t *TestSet) Clone() *TestSet {
	return &TestSet{
		vectors: append([]int(nil), t.vectors...),
		member:  t.member.Clone(),
	}
}

// IsNDetection verifies the defining property of an n-detection test set
// under Definition 1: every target fault is detected at least n times, or
// all its tests are included. (Used by property tests and the verification
// CLI.)
func (t *TestSet) IsNDetection(n int, targets []Fault) bool {
	for _, f := range targets {
		d := t.Detections(f)
		if d >= n {
			continue
		}
		if d == f.N() { // all of T(f) is in the set
			continue
		}
		return false
	}
	return true
}
