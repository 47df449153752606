package sim

import (
	"slices"
	"sort"

	"ndetect/internal/bitset"
	"ndetect/internal/engine"
	"ndetect/internal/fault"
)

// groupByLine maps a per-fault line list onto its sorted deduplicated line
// set plus, per line, the indices of the faults on it — so each line's
// fanout cone is replayed once per block no matter how many faults share it.
// The buckets share one backing array: grouping is on every analysis's
// setup path and must not allocate per line.
func groupByLine(lineOf []int) (lines []int, faultsOf [][]int) {
	lines = append([]int(nil), lineOf...)
	sort.Ints(lines)
	lines = slices.Compact(lines)
	counts := make([]int, len(lines))
	at := make([]int, len(lineOf))
	for fi, id := range lineOf {
		li, _ := slices.BinarySearch(lines, id)
		at[fi] = li
		counts[li]++
	}
	backing := make([]int, len(lineOf))
	faultsOf = make([][]int, len(lines))
	off := 0
	for li, c := range counts {
		faultsOf[li] = backing[off : off : off+c]
		off += c
	}
	for fi, li := range at {
		faultsOf[li] = append(faultsOf[li], fi)
	}
	return lines, faultsOf
}

// StuckAtTSets computes the exhaustive detection set T(f) ⊆ U of every given
// stuck-at fault: the vectors at which the line carries the opposite of the
// stuck value (activation) and the flip is observable at an output
// (propagation). U is streamed in word blocks; only the per-fault result
// bitsets are materialized.
func (e *Exhaustive) StuckAtTSets(faults []fault.StuckAt) []*bitset.Set {
	lineOf := make([]int, len(faults))
	for i, f := range faults {
		lineOf[i] = f.Node
	}
	lines, faultsOf := groupByLine(lineOf)

	size := e.Circuit.VectorSpaceSize()
	out := bitset.NewBatch(size, len(faults))
	e.streamLines(lines, func(li, lo int, prop []uint64, x *engine.Exec) {
		good := x.Node(lines[li])
		fis := faultsOf[li]
		if len(fis) == 2 && faults[fis[0]].Value != faults[fis[1]].Value {
			// The common collapsed pair (sa0, sa1) on one line: split the
			// propagation block into both polarities in one operand pass.
			sa0, sa1 := out[fis[0]], out[fis[1]]
			if faults[fis[0]].Value {
				sa0, sa1 = sa1, sa0
			}
			bitset.SplitRangeAnd(sa0, sa1, lo, prop, good)
			return
		}
		for _, fi := range fis {
			t := out[fi]
			if faults[fi].Value {
				// stuck-at-1: activated where the good value is 0.
				t.SetRangeAndNot(lo, prop, good)
			} else {
				t.SetRangeAnd(lo, prop, good)
			}
		}
	})
	return out
}

// BridgeTSets computes the exhaustive detection set of every given bridging
// fault: T = {v : dominant carries Value, victim carries ¬Value, and
// flipping the victim propagates}.
func (e *Exhaustive) BridgeTSets(bridges []fault.Bridge) []*bitset.Set {
	lineOf := make([]int, len(bridges))
	for i, g := range bridges {
		lineOf[i] = g.Victim
	}
	lines, faultsOf := groupByLine(lineOf)

	size := e.Circuit.VectorSpaceSize()
	out := bitset.NewBatch(size, len(bridges))
	e.streamLines(lines, func(li, lo int, prop []uint64, x *engine.Exec) {
		vw := x.Node(lines[li])
		for _, gi := range faultsOf[li] {
			g := bridges[gi]
			t := out[gi]
			dw := x.Node(g.Dominant)
			if g.Value {
				t.SetRangeAndAndNot(lo, prop, dw, vw) // dom=1, victim=0
			} else {
				t.SetRangeAndAndNot(lo, prop, vw, dw) // dom=0, victim=1
			}
		}
	})
	return out
}

// FilterDetectable drops faults with empty T-sets, returning parallel
// filtered slices. It is used to realize the paper's "detectable ...
// four-way bridging faults" universe and, when desired, a detectable target
// set.
func FilterDetectableBridges(bridges []fault.Bridge, tsets []*bitset.Set) ([]fault.Bridge, []*bitset.Set) {
	var fb []fault.Bridge
	var ft []*bitset.Set
	for i, t := range tsets {
		if !t.IsEmpty() {
			fb = append(fb, bridges[i])
			ft = append(ft, t)
		}
	}
	return fb, ft
}

// FilterDetectableStuckAt drops stuck-at faults with empty T-sets.
func FilterDetectableStuckAt(faults []fault.StuckAt, tsets []*bitset.Set) ([]fault.StuckAt, []*bitset.Set) {
	var ff []fault.StuckAt
	var ft []*bitset.Set
	for i, t := range tsets {
		if !t.IsEmpty() {
			ff = append(ff, faults[i])
			ft = append(ft, t)
		}
	}
	return ff, ft
}
