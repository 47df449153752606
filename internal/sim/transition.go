package sim

import (
	"ndetect/internal/bitset"
	"ndetect/internal/engine"
	"ndetect/internal/fault"
)

// The transition (gross-delay) fault model over two-pattern tests.
//
// A test is an ordered vector pair (v1, v2) ∈ U×U, indexed v1·|U| + v2: v1
// initializes the circuit, v2 launches the transition and observes it. A
// slow-to-rise fault on line l (descriptor V = 0) is detected by (v1, v2)
// iff l carries 0 at v1 (the line must start at its pre-transition value)
// and v2 detects l stuck-at-0 — under the gross-delay assumption the late
// transition makes the line hold its initial value through observation, so
// launch-side detection is exactly single stuck-at detection. Slow-to-fall
// (V = 1) is the mirror image with stuck-at-1. Both factors are
// single-vector bitsets the streaming kernel already computes, so the pair
// T-set is an exact outer product
//
//	T(l, V) = init(l, V) × T(l/V),   init(l, V) = {v : val_l(v) = V}
//
// and no pair-space simulation ever runs. (ISSUE 6 sketches a dual-rail
// ExecTV construction; the product form is mathematically identical — the
// two coordinates of a two-pattern test are independent full vectors — and
// avoids |U|² engine passes. The cross-check against naive per-pair scalar
// simulation lives in transition_test.go.)
//
// Stuck-at targets are lifted to the pair space by either-coordinate
// detection: a two-pattern test applies both of its vectors, so
// T_pair(f) = (T(f) × U) ∪ (U × T(f)).
//
// Result memory is |F|+|G| bitsets over |U|² bits and is bounded against
// sim.MemoryBudget (CheckSpaceBudget) before anything is allocated; wide
// circuits are rejected with that budget error.

// transitionModelTSets is the T-set builder for model ID "transition".
func transitionModelTSets(e *Exhaustive, targets, untargeted []fault.Descriptor,
	step func(stage string)) (*TSets, error) {
	c := e.Circuit
	size := c.VectorSpaceSize()
	pairSize, err := pairSpaceSize(e)
	if err != nil {
		return nil, err
	}
	// Budget: the lifted pair sets plus the transient single-vector
	// factors (2 per untargeted fault, 1 per target).
	if err := CheckSpaceBudget(c.Name, int64(pairSize), len(targets)+len(untargeted)); err != nil {
		return nil, err
	}
	if err := CheckResultBudget(c, len(targets)+2*len(untargeted)); err != nil {
		return nil, err
	}

	step("stuck-at-tsets")
	saT := e.StuckAtTSets(toStuckAt(targets))
	dets, inits := transitionFactors(e, untargeted)

	step("transition-tsets")
	tT := make([]*bitset.Set, len(targets))
	ParallelFor(e.Workers, len(targets), func(_, i int) {
		tT[i] = liftEitherCoordinate(saT[i], size, pairSize)
	})
	lifted := make([]*bitset.Set, len(untargeted))
	ParallelFor(e.Workers, len(untargeted), func(_, j int) {
		if inits[j].IsEmpty() || dets[j].IsEmpty() {
			return // undetectable: no initializing or no launching vector
		}
		lifted[j] = liftProduct(inits[j], dets[j], size, pairSize)
	})
	ts := &TSets{Targets: tT}
	for j, t := range lifted {
		if t != nil {
			ts.Kept = append(ts.Kept, untargeted[j])
			ts.Untargeted = append(ts.Untargeted, t)
		}
	}
	return ts, nil
}

// pairSpaceSize returns |U|² with the same overflow guard fault.SpaceSize
// applies.
func pairSpaceSize(e *Exhaustive) (int, error) {
	m, err := fault.Resolve("transition")
	if err != nil {
		return 0, err
	}
	return fault.SpaceSize(m, e.Circuit)
}

// transitionFactors computes, per transition fault, the two single-vector
// factors of its pair T-set: the launch-detection set T(l/V) and the
// initialization set {v : val_l(v) = V}. One streaming pass serves every
// fault, grouped by line.
func transitionFactors(e *Exhaustive, faults []fault.Descriptor) (dets, inits []*bitset.Set) {
	lineOf := make([]int, len(faults))
	for i, d := range faults {
		lineOf[i] = int(d.A)
	}
	lines, faultsOf := groupByLine(lineOf)

	size := e.Circuit.VectorSpaceSize()
	dets = bitset.NewBatch(size, len(faults))
	inits = bitset.NewBatch(size, len(faults))
	e.streamLines(lines, func(li, lo int, prop []uint64, x *engine.Exec) {
		good := x.Node(lines[li])
		for _, fi := range faultsOf[li] {
			det, init := dets[fi], inits[fi]
			if faults[fi].V != 0 {
				// Slow-to-fall: starts at 1, detected as stuck-at-1.
				det.SetRangeAndNot(lo, prop, good)
				init.SetRange(lo, good)
			} else {
				det.SetRangeAnd(lo, prop, good)
				init.SetRangeNot(lo, good)
			}
		}
	})
	return dets, inits
}

// liftProduct materializes init × det in the flattened pair space: row v1
// (present iff v1 ∈ init) holds det. Universe sizes are powers of two, so
// either every row is word-aligned (size ≥ 64) or the whole space is a
// handful of words (size < 64, bit loop).
func liftProduct(init, det *bitset.Set, size, pairSize int) *bitset.Set {
	out := bitset.New(pairSize)
	if size%64 == 0 {
		rowWords := size / 64
		words := det.Words()
		init.ForEach(func(v1 int) {
			base := v1 * rowWords
			for w, dw := range words {
				out.SetWord(base+w, dw)
			}
		})
		return out
	}
	init.ForEach(func(v1 int) {
		base := v1 * size
		det.ForEach(func(v2 int) {
			out.Add(base + v2)
		})
	})
	return out
}

// liftEitherCoordinate materializes (t × U) ∪ (U × t): row v1 is full when
// v1 ∈ t, and holds t otherwise.
func liftEitherCoordinate(t *bitset.Set, size, pairSize int) *bitset.Set {
	out := bitset.New(pairSize)
	if size%64 == 0 {
		rowWords := size / 64
		words := t.Words()
		for v1 := 0; v1 < size; v1++ {
			base := v1 * rowWords
			if t.Contains(v1) {
				for w := 0; w < rowWords; w++ {
					out.SetWord(base+w, ^uint64(0))
				}
			} else {
				for w, tw := range words {
					out.SetWord(base+w, tw)
				}
			}
		}
		return out
	}
	for v1 := 0; v1 < size; v1++ {
		base := v1 * size
		if t.Contains(v1) {
			for v2 := 0; v2 < size; v2++ {
				out.Add(base + v2)
			}
		} else {
			t.ForEach(func(v2 int) {
				out.Add(base + v2)
			})
		}
	}
	return out
}
