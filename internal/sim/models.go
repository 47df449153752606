package sim

import (
	"fmt"

	"ndetect/internal/bitset"
	"ndetect/internal/fault"
)

// The semantic half of the fault models: per model ID, the function that
// turns the model's enumerated descriptors into detection bitsets against
// the compiled engine. The structural half (enumeration, naming) lives in
// package fault, which cannot import the engine; the shared ID ties the
// halves together (DESIGN.md §12).

// TSets is what a model's T-set builder hands back: the target T-sets and
// the detectable untargeted faults with theirs, materialized or factored.
type TSets struct {
	// Targets[i] is T(f) of the i-th target in enumeration order, never
	// filtered: undetectable targets stay, as in the paper.
	Targets []*bitset.Set
	// Kept are the detectable untargeted faults, in enumeration order.
	Kept []fault.Descriptor
	// Untargeted[j] is T(Kept[j]) under a materialized model (msa2,
	// transition); nil under a factored one.
	Untargeted []*bitset.Set
	// Under a factored model (the default), T(Kept[j]) = S ∩ D with
	// S = Targets[Victim[j]] and D = Columns.Set(Column[j])
	// (FactorBridges). Columns is nil under a materialized model.
	Victim, Column []int32
	Columns        *Columns
}

// ModelTSets builds both T-set families of one fault model from its
// enumerated descriptors. step is called once per major stage with a
// short stage name for progress reporting.
type ModelTSets func(e *Exhaustive, targets, untargeted []fault.Descriptor,
	step func(stage string)) (*TSets, error)

// ModelTSetsFor returns the T-set builder of a model ID, one per model
// fault.ModelIDs lists.
func ModelTSetsFor(id string) (ModelTSets, error) {
	switch id {
	case fault.DefaultModelID:
		return defaultModelTSets, nil
	case "transition":
		return transitionModelTSets, nil
	case "msa2":
		return msa2ModelTSets, nil
	}
	return nil, fmt.Errorf("sim: no T-set builder for fault model %q (have %v)", id, fault.ModelIDs())
}

// toStuckAt unpacks stuck-at-shaped descriptors.
func toStuckAt(ds []fault.Descriptor) []fault.StuckAt {
	out := make([]fault.StuckAt, len(ds))
	for i, d := range ds {
		out[i] = d.StuckAt()
	}
	return out
}

// defaultModelTSets is the paper's configuration: stuck-at target T-sets
// plus the detectable four-way bridge universe, factored (FactorBridges):
// no T(g) is materialized, only the dominants' columns. Stage names and
// order ("stuck-at-tsets", "bridge-tsets") are part of the progress
// contract.
func defaultModelTSets(e *Exhaustive, targets, untargeted []fault.Descriptor,
	step func(stage string)) (*TSets, error) {
	isDom := make([]bool, e.Circuit.NumNodes())
	for _, d := range untargeted {
		isDom[d.A] = true
	}
	var doms []int32
	for node, ok := range isDom {
		if ok {
			doms = append(doms, int32(node))
		}
	}
	// What is materialized: the targets and both polarities of each column.
	if err := CheckResultBudget(e.Circuit, len(targets)+2*len(doms)); err != nil {
		return nil, err
	}
	step("stuck-at-tsets")
	tT := e.StuckAtTSets(toStuckAt(targets))
	step("bridge-tsets")
	cols := e.goodColumns(doms)
	victim, column, err := FactorBridges(e.Circuit, targets, cols, untargeted)
	if err != nil {
		return nil, err
	}
	// Detectable means S ∩ D ≠ ∅. Chunks are fixed by index, so the work
	// does not depend on the worker count.
	detectable := make([]bool, len(untargeted))
	chunks := (len(untargeted) + factorChunk - 1) / factorChunk
	ParallelFor(e.Workers, chunks, func(_, ci int) {
		for i := ci * factorChunk; i < min((ci+1)*factorChunk, len(untargeted)); i++ {
			detectable[i] = tT[victim[i]].Intersects(cols.Set(column[i]))
		}
	})
	kept := 0
	for _, ok := range detectable {
		if ok {
			kept++
		}
	}
	// Compact the factors in place; kept indices never pass their source.
	ts := &TSets{Targets: tT, Kept: make([]fault.Descriptor, 0, kept), Victim: victim[:0], Column: column[:0], Columns: cols}
	for i, ok := range detectable {
		if ok {
			ts.Kept = append(ts.Kept, untargeted[i])
			ts.Victim = append(ts.Victim, victim[i])
			ts.Column = append(ts.Column, column[i])
		}
	}
	return ts, nil
}

// factorChunk is the detectability check's fan-out unit, in bridges.
const factorChunk = 4096
