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
// bitset T-sets; FromCircuit binds a gate-level circuit to that model using
// the fault and sim packages.
package ndetect

import (
	"fmt"
	"strings"

	"ndetect/internal/bitset"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/sim"
)

// Fault is a named fault with its exhaustive detection set.
type Fault struct {
	Name string
	T    *bitset.Set
}

// N returns N(f) = |T(f)|.
func (f Fault) N() int { return f.T.Count() }

// Universe is an instance of the paper's analysis: a vector space, a target
// set F and an untargeted set G.
type Universe struct {
	Size       int // |U| = 2^inputs
	Targets    []Fault
	Untargeted []Fault
}

// Validate checks internal consistency.
func (u *Universe) Validate() error {
	for i, f := range u.Targets {
		if f.T == nil || f.T.Size() != u.Size {
			return fmt.Errorf("ndetect: target %d (%s) has T-set over wrong universe", i, f.Name)
		}
	}
	for i, g := range u.Untargeted {
		if g.T == nil || g.T.Size() != u.Size {
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

// AnalyzeOptions configures FromCircuitOptions. Workers only changes
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

// FromCircuit builds the paper's experimental setup for a circuit:
//
//	F = collapsed single stuck-at faults (undetectable ones retained; they
//	    never influence either analysis, exactly as in the paper), and
//	G = detectable non-feedback four-way bridging faults between outputs of
//	    multi-input gates.
func FromCircuit(c *circuit.Circuit) (*CircuitUniverse, error) {
	return FromCircuitWorkers(c, 0)
}

// FromCircuitWorkers is FromCircuit with an explicit worker count for the
// exhaustive simulation and T-set construction (0 = one worker per CPU,
// 1 = serial). The universe built is identical for every worker count.
func FromCircuitWorkers(c *circuit.Circuit, workers int) (*CircuitUniverse, error) {
	return FromCircuitOptions(c, AnalyzeOptions{Workers: workers})
}

// FromCircuitOptions is FromCircuit with explicit options, reporting stage
// transitions to opts.Progress. It is BuildUniverse under the default
// model.
func FromCircuitOptions(c *circuit.Circuit, opts AnalyzeOptions) (*CircuitUniverse, error) {
	return BuildUniverse(c, fault.Default(), opts)
}

// BuildUniverse builds the analysis universe for a circuit under a fault
// model: the model enumerates both structural fault sets, the T-set
// builder registered in sim under the model's ID computes the detection
// bitsets against the compiled engine (dropping undetectable untargeted
// faults), and AssembleUniverse binds the result.
//
// The T-sets are streamed — only the per-fault result bitsets span the
// model's test-index space — so the construction is bounded by explicit
// memory-budget checks on those results (sim.MemoryBudget) instead of by
// materialized per-node values.
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
	tT, uT, kept, err := build(e, targets, untargeted, func(stage string) { step(stage) })
	if err != nil {
		return nil, err
	}
	step("universe")
	return AssembleUniverse(c, m, targets, kept, tT, uT)
}

// AssembleUniverse binds precomputed fault tables and their T-sets to a
// circuit under a model, producing the same CircuitUniverse BuildUniverse
// would build had it computed them itself: fault names are rendered by the
// model from the circuit, and Targets[i]/Untargeted[i] pair with
// TargetFaults[i]/UntargetedFaults[i] in table order. It is the assembly
// tail of BuildUniverse, shared with the artifact store's universe codec
// so that a deserialized universe is indistinguishable from a freshly
// constructed one (DESIGN.md §11).
func AssembleUniverse(c *circuit.Circuit, m fault.Model, targets, untargeted []fault.Descriptor, tT, uT []*bitset.Set) (*CircuitUniverse, error) {
	size, err := fault.SpaceSize(m, c)
	if err != nil {
		return nil, err
	}
	return &CircuitUniverse{
		Universe: Universe{
			Size:       size,
			Targets:    namedFaults(c, m.Provider(fault.TargetSet), targets, tT),
			Untargeted: namedFaults(c, m.Provider(fault.UntargetedSet), untargeted, uT),
		},
		Circuit:          c,
		Model:            m,
		TargetFaults:     targets,
		UntargetedFaults: untargeted,
	}, nil
}

// namedFaults pairs one fault set's descriptors with their T-sets. The
// set's names are written once into a single string of exactly their
// total length, measured in a first pass, and each Fault.Name is a slice
// of it: one allocation per set, not one per fault.
func namedFaults(c *circuit.Circuit, p fault.SetProvider, ds []fault.Descriptor, ts []*bitset.Set) []Fault {
	var name []byte
	total := 0
	for _, d := range ds {
		name = p.AppendName(name[:0], c, d)
		total += len(name)
	}
	var names strings.Builder
	names.Grow(total)
	out := make([]Fault, len(ds))
	for i, d := range ds {
		start := names.Len()
		name = p.AppendName(name[:0], c, d)
		names.Write(name)
		out[i] = Fault{Name: names.String()[start:], T: ts[i]}
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
