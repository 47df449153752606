package sim

import (
	"sync"

	"ndetect/internal/bitset"
	"ndetect/internal/engine"
	"ndetect/internal/fault"
)

// The pairwise multiple stuck-at model (ID "msa2"): the untargeted set is
// every pair of collapsed stuck-at faults on distinct lines, both present
// at once. Pair detection is computed exactly, with no single-fault
// approximation: both sites are forced to their stuck values across a
// whole word block (engine.ConeExec.PropForcedInto on the union fanout
// cone compiled by ConeCompiler.Compile), and a vector detects the pair iff
// any reachable output disagrees with the good machine — which accounts
// for masking between the two faults, the phenomenon that makes the model
// interesting.
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
// observable at an output.
func (e *Exhaustive) pairStuckAtTSets(pairs []fault.Descriptor) []*bitset.Set {
	size := e.Circuit.VectorSpaceSize()
	nWords := universeWords(size)
	out := bitset.NewBatch(size, len(pairs))
	if len(pairs) == 0 {
		return out
	}

	if nWords <= smallUniverseWords {
		// One shared good block; pairs fan out, each worker compiling and
		// discarding its pair's union cone with pooled compiler scratch
		// (compilation is cheap next to the replay at these sizes, and
		// nothing is retained).
		x := engine.NewExec(e.prog, nWords)
		x.Eval(0, nWords)
		var pool sync.Pool
		ParallelFor(e.Workers, len(pairs), func(pi int) {
			s, _ := pool.Get().(*pairScratch)
			if s == nil {
				s = &pairScratch{
					cc:   e.newConeCompiler(),
					cx:   engine.NewConeExec(nWords),
					prop: make([]uint64, nWords),
				}
			}
			d := pairs[pi]
			cp := s.cc.Compile([]int{int(d.A), int(d.B)})
			s.cx.PropForcedInto(cp, x, []bool{d.V&1 != 0, d.V&2 != 0}, s.prop)
			out[pi].SetRange(0, s.prop)
			pool.Put(s)
		})
		return out
	}

	// Large universe: blocks fan out; cones are precompiled once (batched,
	// with pooled compiler scratch) so the per-block loop only replays.
	// (CheckResultBudget already bounds the pair count at these universe
	// sizes — the T-sets alone dwarf the compiled cones.)
	cps := make([]*engine.ConeProgram, len(pairs))
	var ccPool sync.Pool
	ParallelFor(e.Workers, len(pairs), func(pi int) {
		cc, _ := ccPool.Get().(*engine.ConeCompiler)
		if cc == nil {
			cc = e.newConeCompiler()
		}
		cps[pi] = cc.Compile([]int{int(pairs[pi].A), int(pairs[pi].B)})
		ccPool.Put(cc)
	})
	maxRegs := 0
	for _, cp := range cps {
		maxRegs = max(maxRegs, cp.NumRegs)
	}
	blockWords := blockWordsFor(nWords, e.Workers)
	var pool sync.Pool
	streamBlocks(e.prog, e.Workers, nWords, blockWords, func(lo, hi int, x *engine.Exec) {
		s, _ := pool.Get().(*lineScratch)
		if s == nil {
			s = &lineScratch{
				cx:   engine.NewConeExec(min(blockWords, nWords)),
				prop: make([]uint64, blockWords),
			}
			s.cx.Reserve(maxRegs)
		}
		for pi, cp := range cps {
			d := pairs[pi]
			prop := s.prop[:hi-lo]
			s.cx.PropForcedInto(cp, x, []bool{d.V&1 != 0, d.V&2 != 0}, prop)
			out[pi].SetRange(lo, prop)
		}
		pool.Put(s)
	})
	return out
}

// pairScratch is the per-worker scratch of the small-universe msa2 path:
// cone compiler, replay context, and propagation buffer, pooled together.
type pairScratch struct {
	cc   *engine.ConeCompiler
	cx   *engine.ConeExec
	prop []uint64
}
