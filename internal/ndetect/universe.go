// Package ndetect implements the paper's two analyses of n-detection test
// sets:
//
//   - the worst-case analysis (Section 2): nmin(g), the smallest n such that
//     EVERY n-detection test set for the target faults F is guaranteed to
//     detect the untargeted fault g, and
//   - the average-case analysis (Section 3): p(n,g), the probability that an
//     arbitrary n-detection test set detects g, estimated by constructing K
//     random n-detection test sets with the paper's Procedure 1, under
//     either Definition 1 (plain counting) or Definition 2 (similarity-
//     filtered counting, Section 4).
//
// Both analyses are functions of the exhaustive detection sets T(f) ⊆ U
// alone, so the package's model is an abstract Universe of named faults with
// bitset T-sets; BuildUniverse binds a gate-level circuit to that model using
// the fault and sim packages.
package ndetect

import (
	"fmt"
	"math/bits"
	"strings"

	"ndetect/internal/bitset"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/sim"
)

// Fault is a named fault with its exhaustive detection set T(f). Read the
// set through Words or Set. T holds it for targets and for the untargeted
// faults of a materialized model (msa2, transition). The default model's
// bridges are factored instead: T is nil, and the fault keeps two shared
// sets with T(f) = s ∩ d, its victim class's target T-set and its
// dominant's column (sim.FactorBridges). A direct read of T therefore
// panics on a factored fault rather than reading a factor.
type Fault struct {
	Name string
	T    *bitset.Set
	s, d *bitset.Set
}

// N returns N(f) = |T(f)|.
func (f Fault) N() int {
	if f.T != nil {
		return f.T.Count()
	}
	return f.s.IntersectionCount(f.d)
}

// countIn returns |T(f) ∩ x|. A factored fault counts s & d & x in one
// word loop, without building T(f).
func (f Fault) countIn(x *bitset.Set) int {
	if f.T != nil {
		return x.IntersectionCount(f.T)
	}
	xw := x.Words()
	sw, dw := f.s.Words()[:len(xw)], f.d.Words()[:len(xw)]
	n := 0
	for i, w := range xw {
		n += bits.OnesCount64(w & sw[i] & dw[i])
	}
	return n
}

// meets reports whether T(f) ∩ x ≠ ∅, reading a factored fault as countIn
// does.
func (f Fault) meets(x *bitset.Set) bool {
	if f.T != nil {
		return x.Intersects(f.T)
	}
	xw := x.Words()
	sw, dw := f.s.Words()[:len(xw)], f.d.Words()[:len(xw)]
	for i, w := range xw {
		if w&sw[i]&dw[i] != 0 {
			return true
		}
	}
	return false
}

// Words returns T(f)'s words: the stored words of a materialized fault,
// or s & d written into dst (reallocated when too short) for a factored
// one. The result may alias the fault's storage; do not modify it.
func (f Fault) Words(dst []uint64) []uint64 {
	if f.T != nil {
		return f.T.Words()
	}
	sw, dw := f.s.Words(), f.d.Words()
	if cap(dst) < len(sw) {
		dst = make([]uint64, len(sw))
	}
	dst, dw = dst[:len(sw)], dw[:len(sw)]
	for i, w := range sw {
		dst[i] = w & dw[i]
	}
	return dst
}

// Set returns T(f): the stored set of a materialized fault, or a fresh
// s ∩ d. Do not modify the result.
func (f Fault) Set() *bitset.Set {
	if f.T != nil {
		return f.T
	}
	t := f.s.Clone()
	t.IntersectWith(f.d)
	return t
}

// over reports whether f's detection set ranges over a universe of size
// vectors.
func (f Fault) over(size int) bool {
	if f.T != nil {
		return f.T.Size() == size
	}
	return f.s != nil && f.d != nil && f.s.Size() == size && f.d.Size() == size
}

// Universe is an instance of the paper's analysis: a vector space, a target
// set F and an untargeted set G.
type Universe struct {
	Size       int // |U| = 2^inputs
	Targets    []Fault
	Untargeted []Fault

	// A universe AssembleUniverse factored also keeps its factors by
	// index: T(Untargeted[j]) = T(Targets[victim[j]]) ∩ cols.Set(column[j])
	// (sim.TSets). The worst case reads them (unitRows); cols is nil
	// otherwise, subsets and hand-built universes included.
	victim, column []int32
	cols           *sim.Columns
}

// Validate checks internal consistency.
func (u *Universe) Validate() error {
	for i, f := range u.Targets {
		if !f.over(u.Size) {
			return fmt.Errorf("ndetect: target %d (%s) has T-set over wrong universe", i, f.Name)
		}
	}
	for i, g := range u.Untargeted {
		if !g.over(u.Size) {
			return fmt.Errorf("ndetect: untargeted %d (%s) has T-set over wrong universe", i, g.Name)
		}
	}
	return nil
}

// CircuitUniverse is a Universe bound to the circuit and fault model it
// came from, keeping the model-tagged structural descriptors needed by
// Definition 2, by reports, and by the artifact codec.
type CircuitUniverse struct {
	Universe
	Circuit *circuit.Circuit
	// Model is the fault model the universe was built under.
	Model fault.Model
	// TargetFaults[i] is the structural fault behind Targets[i].
	TargetFaults []fault.Descriptor
	// UntargetedFaults[i] is the structural fault behind Untargeted[i].
	UntargetedFaults []fault.Descriptor
	// Columns are the dominant columns a factored universe's untargeted
	// faults share; nil when the untargeted sets are materialized.
	Columns *sim.Columns
}

// StuckAt returns the structural stuck-at faults behind Targets, or nil
// when the model's targets are not single stuck-at faults over U (the
// shape Definition 2 requires — see fault.Model.Def2Capable).
func (u *CircuitUniverse) StuckAt() []fault.StuckAt {
	if u.Model == nil || !u.Model.Def2Capable() {
		return nil
	}
	out := make([]fault.StuckAt, len(u.TargetFaults))
	for i, d := range u.TargetFaults {
		out[i] = d.StuckAt()
	}
	return out
}

// Bridges returns the structural bridging faults behind Untargeted; it is
// only meaningful under the default model.
func (u *CircuitUniverse) Bridges() []fault.Bridge {
	out := make([]fault.Bridge, len(u.UntargetedFaults))
	for i, d := range u.UntargetedFaults {
		out[i] = d.Bridge()
	}
	return out
}

// Progress observes coarse stage transitions of a long-running analysis:
// stage names a phase, done/total count completed units within it (units
// differ per stage — universe construction counts stages, Procedure 1
// counts finished test sets, the partitioned pipeline counts parts).
// Callbacks are invoked serially and must be fast; they exist for live
// status reporting (the serving layer's job progress, DESIGN.md §10) and
// never influence results.
type Progress func(stage string, done, total int)

// AnalyzeOptions configures BuildUniverse. Workers only changes
// wall-clock time and Progress only observes — neither is part of the
// result identity (DESIGN.md §7): the universe built is byte-identical for
// every setting.
type AnalyzeOptions struct {
	// Workers bounds the simulation and T-set parallelism (0 = one worker
	// per CPU, 1 = the exact serial path).
	Workers int
	// Progress, when non-nil, observes the construction stages.
	Progress Progress
}

// BuildUniverse builds the analysis universe for a circuit under a fault
// model: the model enumerates both structural fault sets, sim's T-set
// builder for the model's ID computes the detection bitsets against the
// compiled engine (dropping undetectable untargeted faults), and
// AssembleUniverse binds the result. Under fault.Default() that is the
// paper's setup:
//
//	F = collapsed single stuck-at faults (undetectable ones retained; they
//	    never influence either analysis, exactly as in the paper), and
//	G = detectable non-feedback four-way bridging faults between outputs of
//	    multi-input gates.
//
// The T-sets are streamed — only the result bitsets span the model's
// test-index space: one per fault, or under the factored default model
// one per target plus two columns per bridge dominant — so the
// construction is bounded by explicit memory-budget checks on those
// results (sim.MemoryBudget) instead of by materialized per-node values.
func BuildUniverse(c *circuit.Circuit, m fault.Model, opts AnalyzeOptions) (*CircuitUniverse, error) {
	build, err := sim.ModelTSetsFor(m.ID())
	if err != nil {
		return nil, err
	}
	done := 0
	step := func(stage string) {
		if opts.Progress != nil {
			opts.Progress(stage, done, 3)
		}
		done++
	}
	step("simulate")
	e, err := sim.RunWorkers(c, opts.Workers)
	if err != nil {
		return nil, err
	}
	targets := fault.EnumerateSet(m, c, fault.TargetSet)
	untargeted := fault.EnumerateSet(m, c, fault.UntargetedSet)
	ts, err := build(e, targets, untargeted, func(stage string) { step(stage) })
	if err != nil {
		return nil, err
	}
	step("universe")
	return AssembleUniverse(c, m, targets, ts)
}

// AssembleUniverse binds the target descriptors and a builder's T-sets
// (ts.Kept are the untargeted descriptors) to a circuit under a model,
// producing the same CircuitUniverse BuildUniverse would build had it
// computed them itself: fault names are rendered by the model from the
// circuit, and Targets[i]/Untargeted[i] pair with
// TargetFaults[i]/UntargetedFaults[i] in table order. A factored ts gives
// factored untargeted faults, and the universe keeps ts's factor indices
// for the worst case. It is the assembly tail of BuildUniverse,
// shared with the artifact store's universe codec so that a deserialized
// universe is indistinguishable from a freshly constructed one
// (DESIGN.md §11).
func AssembleUniverse(c *circuit.Circuit, m fault.Model, targets []fault.Descriptor, ts *sim.TSets) (*CircuitUniverse, error) {
	size, err := fault.SpaceSize(m, c)
	if err != nil {
		return nil, err
	}
	u := &CircuitUniverse{
		Universe: Universe{
			Size:       size,
			Targets:    namedFaults(c, m.Provider(fault.TargetSet), targets),
			Untargeted: namedFaults(c, m.Provider(fault.UntargetedSet), ts.Kept),
			victim:     ts.Victim,
			column:     ts.Column,
			cols:       ts.Columns,
		},
		Circuit:          c,
		Model:            m,
		TargetFaults:     targets,
		UntargetedFaults: ts.Kept,
		Columns:          ts.Columns,
	}
	for i := range u.Targets {
		u.Targets[i].T = ts.Targets[i]
	}
	for j := range u.Untargeted {
		g := &u.Untargeted[j]
		if ts.Columns == nil {
			g.T = ts.Untargeted[j]
		} else {
			g.s, g.d = ts.Targets[ts.Victim[j]], ts.Columns.Set(ts.Column[j])
		}
	}
	return u, nil
}

// namedFaults returns one fault set's faults, named and without sets. The
// set's names are written once into a single string of exactly their
// total length, measured in a first pass, and each Fault.Name is a slice
// of it: one allocation per set, not one per fault.
func namedFaults(c *circuit.Circuit, p fault.SetProvider, ds []fault.Descriptor) []Fault {
	var name []byte
	total := 0
	for _, desc := range ds {
		name = p.AppendName(name[:0], c, desc)
		total += len(name)
	}
	var names strings.Builder
	names.Grow(total)
	out := make([]Fault, len(ds))
	for i, desc := range ds {
		start := names.Len()
		name = p.AppendName(name[:0], c, desc)
		names.Write(name)
		out[i].Name = names.String()[start:]
	}
	return out
}

// DetectableTargets returns the number of targets with non-empty T-sets.
func (u *Universe) DetectableTargets() int {
	n := 0
	for _, f := range u.Targets {
		if !f.T.IsEmpty() {
			n++
		}
	}
	return n
}
