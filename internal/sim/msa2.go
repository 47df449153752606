package sim

import (
	"ndetect/internal/bitset"
	"ndetect/internal/engine"
	"ndetect/internal/fault"
)

// The pairwise multiple stuck-at model (ID "msa2"): the untargeted set is
// every pair of collapsed stuck-at faults on distinct lines, both present
// at once. Pair detection is computed exactly, with no single-fault
// approximation: a vector detects the pair iff some output of the machine
// with both sites held at their stuck values disagrees with the good
// machine, which accounts for masking between the two faults, the
// phenomenon that makes the model interesting. No cone is compiled per
// pair. Each pair is oriented: its base is the site of lower level (A on a
// tie), its partner the other. Per block, the circuit is evaluated once per
// base fault with the base forced (engine.Exec.EvalForced), and each
// partner's cached single-site cone replays against that bank with the
// partner held at its value (engine.ConeExec.PropPairInto), reading only
// the outputs of the base's cached cone outside the partner's. The base
// lies outside the partner's cone, whose nodes other than the partner all
// have a higher level, so the replay sees the exact double-fault values.
// Targets are the ordinary collapsed stuck-at faults over the same
// single-vector space, so Definition 2 still applies.

// msa2ModelTSets is the T-set builder for model ID "msa2".
func msa2ModelTSets(e *Exhaustive, targets, untargeted []fault.Descriptor,
	step func(stage string)) (*TSets, error) {
	if err := CheckResultBudget(e.Circuit, len(targets)+len(untargeted)); err != nil {
		return nil, err
	}
	step("stuck-at-tsets")
	ts := &TSets{Targets: e.StuckAtTSets(toStuckAt(targets))}
	step("msa2-tsets")
	for i, t := range e.pairStuckAtTSets(untargeted) {
		if !t.IsEmpty() {
			ts.Kept = append(ts.Kept, untargeted[i])
			ts.Untargeted = append(ts.Untargeted, t)
		}
	}
	return ts, nil
}

// pairStuckAtTSets computes T(g) for every descriptor {A, B, V}: the
// vectors at which forcing A to V&1 and B to V>>1 simultaneously is
// observable at an output. Faults are keyed 2·node + value. Tasks run
// over (block, base fault) and write only their block's words of their
// base's pairs.
func (e *Exhaustive) pairStuckAtTSets(pairs []fault.Descriptor) []*bitset.Set {
	c := e.Circuit
	out := bitset.NewBatch(c.VectorSpaceSize(), len(pairs))
	baseOf := make([]int, len(pairs))
	partnerOf := make([]int, len(pairs))
	isPartner := make([]bool, c.NumNodes())
	for pi, d := range pairs {
		a, b := 2*int(d.A)+int(d.V&1), 2*int(d.B)+int(d.V>>1&1)
		// The base is the site of lower level, so it lies outside the
		// partner's cone.
		if c.Node(int(d.B)).Level < c.Node(int(d.A)).Level {
			a, b = b, a
		}
		baseOf[pi], partnerOf[pi] = a, b
		isPartner[b/2] = true
	}
	bases, pairsOf := groupByLine(baseOf)
	baseLines := make([]int, len(bases))
	for k, b := range bases {
		baseLines[k] = b / 2
	}
	// Every base is a target site, so its cone is already cached; only
	// its outputs are read.
	baseCones := e.conesFor(baseLines)
	var partners []int
	for node, ok := range isPartner {
		if ok {
			partners = append(partners, node)
		}
	}
	coneOf := make([]*engine.ConeProgram, c.NumNodes())
	maxRegs := 0
	for i, cp := range e.conesFor(partners) {
		coneOf[partners[i]] = cp
		maxRegs = max(maxRegs, cp.NumRegs)
	}
	e.blockTasks(len(bases), maxRegs, true, func(k, lo int, s *blockScratch) {
		s.forced.EvalForced(s.good, bases[k]/2, bases[k]%2 == 1)
		for _, pi := range pairsOf[k] {
			p := partnerOf[pi]
			s.cx.PropPairInto(coneOf[p/2], p%2 == 1, baseCones[k].Outputs, s.forced, s.good, s.prop)
			out[pi].SetRange(lo, s.prop)
		}
	})
	return out
}
