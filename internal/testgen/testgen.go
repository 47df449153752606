// Package testgen generates compact n-detection test sets, the
// deterministic counterpart of Procedure 1's random ones.
//
// The paper's premise is that "the size of a compact n-detection test set
// increases approximately linearly with n", which is what makes large n
// impractical; Procedure 1 deliberately builds arbitrary (random) sets to
// study the behaviour of any test generator. This package supplies the
// compact generator itself: a greedy set-cover construction over the
// exhaustive detection sets, followed by reverse-order compaction. The
// pairing lets the library both reproduce the paper's analysis and produce
// the artifacts the analysis is about.
package testgen

import (
	"ndetect/internal/ndetect"
)

// Greedy builds an n-detection test set by repeatedly adding the input
// vector that reduces the largest total detection deficit. The deficit of a
// target fault f is max(0, min(n, N(f)) − detections so far); the score of
// a vector is the number of faults it moves toward their requirement.
// Ties break toward the smallest vector, making the result deterministic.
//
// The resulting set satisfies TestSet.IsNDetection(n, targets) by
// construction: the loop only stops when every deficit is zero, and a
// vector with positive score always exists while any deficit is positive.
func Greedy(u *ndetect.Universe, n int) *ndetect.TestSet {
	ts := ndetect.NewTestSet(u.Size)

	need := make([]int, len(u.Targets))
	remaining := 0
	for i, f := range u.Targets {
		need[i] = min(n, f.N())
		remaining += need[i]
	}
	if remaining == 0 {
		return ts
	}

	// Reverse index: vector → target faults detecting it.
	fAt := make([][]int32, u.Size)
	for i, f := range u.Targets {
		f.T.ForEach(func(v int) {
			fAt[v] = append(fAt[v], int32(i))
		})
	}

	// score[v] = number of faults with need > 0 detected by v.
	score := make([]int, u.Size)
	for v := range score {
		for _, fi := range fAt[v] {
			if need[fi] > 0 {
				score[v]++
			}
		}
	}

	for remaining > 0 {
		best, bestScore := -1, 0
		for v, s := range score {
			if !ts.Contains(v) && s > bestScore {
				best, bestScore = v, s
			}
		}
		if best < 0 {
			// Cannot happen for a consistent universe: a positive deficit
			// implies some fault has an unused test vector.
			break
		}
		ts.Add(best)
		for _, fi := range fAt[best] {
			if need[fi] == 0 {
				continue
			}
			need[fi]--
			remaining--
			if need[fi] == 0 {
				// The fault is satisfied; its other vectors stop scoring.
				u.Targets[fi].T.ForEach(func(v int) {
					score[v]--
				})
			}
		}
	}
	return ts
}

// Compact drops vectors from the set (newest first) while the n-detection
// property holds, returning a new, usually smaller set. Reverse order works
// well on greedy output because the last picks patched the smallest
// deficits and are the most likely to be redundant once earlier vectors
// double-cover them.
func Compact(ts *ndetect.TestSet, u *ndetect.Universe, n int) *ndetect.TestSet {
	vectors := append([]int(nil), ts.Vectors()...)
	keep := make([]bool, len(vectors))
	for i := range keep {
		keep[i] = true
	}

	// Detection counts with everything kept.
	det := make([]int, len(u.Targets))
	for i, f := range u.Targets {
		det[i] = ts.Detections(f)
	}
	needOf := func(fi int) int { return min(n, u.Targets[fi].N()) }

	fAt := make([][]int32, u.Size)
	for i, f := range u.Targets {
		f.T.ForEach(func(v int) {
			fAt[v] = append(fAt[v], int32(i))
		})
	}

	for i := len(vectors) - 1; i >= 0; i-- {
		v := vectors[i]
		removable := true
		for _, fi := range fAt[v] {
			if det[fi]-1 < needOf(int(fi)) {
				removable = false
				break
			}
		}
		if removable {
			keep[i] = false
			for _, fi := range fAt[v] {
				det[fi]--
			}
		}
	}

	out := ndetect.NewTestSet(u.Size)
	for i, v := range vectors {
		if keep[i] {
			out.Add(v)
		}
	}
	return out
}

// GreedyCompact is Greedy followed by Compact.
func GreedyCompact(u *ndetect.Universe, n int) *ndetect.TestSet {
	return Compact(Greedy(u, n), u, n)
}

// Coverage reports how many of the given untargeted faults the test set
// detects.
func Coverage(ts *ndetect.TestSet, untargeted []ndetect.Fault) int {
	c := 0
	for _, g := range untargeted {
		if ts.Detects(g) {
			c++
		}
	}
	return c
}

// LowerBound computes a simple lower bound on the size of any n-detection
// test set: the largest total requirement of any single vector... more
// usefully, the bound max over f of min(n, N(f)) · |F'| / |U| is weak, so
// we use the independent-fault bound: the maximum, over faults f, of
// min(n, N(f)) — every n-detection test set must contain that many vectors
// just for f — combined with a counting bound Σ min(n,N(f)) / maxScore,
// where maxScore is the most faults any single vector detects.
func LowerBound(u *ndetect.Universe, n int) int {
	best := 0
	total := 0
	perVector := make([]int, u.Size)
	for _, f := range u.Targets {
		r := min(n, f.N())
		total += r
		if r > best {
			best = r
		}
		f.T.ForEach(func(v int) {
			perVector[v]++
		})
	}
	maxScore := 1
	for _, s := range perVector {
		if s > maxScore {
			maxScore = s
		}
	}
	if counting := (total + maxScore - 1) / maxScore; counting > best {
		best = counting
	}
	return best
}
