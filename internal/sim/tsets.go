package sim

import (
	"fmt"
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

// Columns holds good-machine value columns over U for an ascending list
// of nodes: One[i] = {v : node Nodes[i] carries 1 at v} and Zero[i] =
// U − One[i]. The activation condition l1 = a1 of a dominance bridge is
// one of them (DESIGN.md §3).
type Columns struct {
	Nodes     []int32
	One, Zero []*bitset.Set
}

// NewColumns allocates empty columns over a universe of size vectors for
// the given ascending nodes, both polarities in one batch.
func NewColumns(size int, nodes []int32) *Columns {
	sets := bitset.NewBatch(size, 2*len(nodes))
	return &Columns{Nodes: nodes, One: sets[:len(nodes)], Zero: sets[len(nodes):]}
}

// Set returns the column set a FactorBridges column index names: One[i]
// for i < len(Nodes), else Zero[i − len(Nodes)], the order NewColumns
// allocates them in.
func (c *Columns) Set(i int32) *bitset.Set {
	if n := int32(len(c.Nodes)); i >= n {
		return c.Zero[i-n]
	}
	return c.One[i]
}

// Store writes column i's words [lo, lo+len(ones)): ones into One[i] and
// their complement into Zero[i].
func (c *Columns) Store(i, lo int, ones []uint64) {
	c.One[i].SetRange(lo, ones)
	c.Zero[i].SetRangeNot(lo, ones)
}

// goodColumns computes the value columns of the given ascending nodes in
// one good-machine pass over U.
func (e *Exhaustive) goodColumns(nodes []int32) *Columns {
	cols := NewColumns(e.Circuit.VectorSpaceSize(), nodes)
	e.blockTasks(1, 0, false, func(_, lo int, s *blockScratch) {
		for i, n := range nodes {
			cols.Store(i, lo, s.good.Node(int(n)))
		}
	})
	return cols
}

// FactorBridges returns the two factors of T(g) = S ∩ D for every
// dominance bridge g = (l1, a1, l2, ¬a1) as indices, without
// materializing T(g):
//
//   - victim[i] indexes targets: S = T(l2 stuck-at a1), since g is
//     detected exactly where that stuck-at fault is and l1 carries a1. The
//     fault is structurally equivalent to one of the targets, whose T-set
//     S is; the class map of the target descriptors picks it.
//   - column[i] names D = {v : l1 = a1} through cols.Set: the dominant's
//     column index at a1 = 1, that index plus len(cols.Nodes) at a1 = 0.
//
// The bridges must name nodes of c (fault.BridgeProvider.Validate). It
// fails when a victim's class has no target or a dominant has no column,
// which only a list or artifact inconsistent with the circuit can cause.
func FactorBridges(c *Circuit, targets []fault.Descriptor, cols *Columns,
	bridges []fault.Descriptor) (victim, column []int32, err error) {
	classes, err := fault.StuckAtClasses(c, targets)
	if err != nil {
		return nil, nil, err
	}
	colOf := make([]int32, c.NumNodes()) // 1 + column index, 0 = none
	for i, node := range cols.Nodes {
		colOf[node] = int32(i) + 1
	}
	victim = make([]int32, len(bridges))
	column = make([]int32, len(bridges))
	for i, b := range bridges {
		a1 := b.V != 0
		k, ok := classes.Target(int(b.B), a1)
		if !ok {
			return nil, nil, fmt.Errorf("sim: bridge %d: victim %d stuck-at %d has no target", i, b.B, b.V)
		}
		victim[i] = int32(k)
		ci := colOf[b.A] - 1
		switch {
		case ci < 0:
			return nil, nil, fmt.Errorf("sim: bridge %d: dominant %d has no column", i, b.A)
		case !a1:
			ci += int32(len(cols.Nodes))
		}
		column[i] = ci
	}
	return victim, column, nil
}
