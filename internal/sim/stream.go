package sim

import (
	"slices"
	"sync"

	"ndetect/internal/engine"
)

// The streaming kernel: every exhaustive analysis — prop masks, stuck-at
// T-sets, transition factors — reduces to "for every requested line, the vectors
// at which flipping that line reaches an output", filtered by a per-fault
// activation condition. streamLines computes exactly that, block by block:
// the good machine is evaluated over a cache-sized word block of U, each
// line's compiled fanout cone is replayed against it, and the caller
// receives the block's propagation words together with the good-value block
// for activation masking. Only per-fault result bitsets ever span U.

// smallUniverseWords is the cutoff below which the whole universe is one
// block: the good machine is evaluated once and the parallelism comes from
// fanning the lines out instead (matching the pre-engine fault-level
// pools, which is what the benchmark-suite circuits exercise).
const smallUniverseWords = 2 * minBlockWords

// onesBlock backs the propagation slice handed to emit for always-prop
// lines (engine.ConeProgram.AlwaysProp): their mask is all-ones at every
// vector, so no replay runs at all. It is shared across goroutines — safe
// because emit receives prop read-only under the streamLines contract.
var onesBlock = func() []uint64 {
	s := make([]uint64, maxBlockWords)
	for i := range s {
		s[i] = ^uint64(0)
	}
	return s
}()

// lineScratch is one worker's reusable cone state for the block-parallel
// path (the good-machine Exec is pooled by streamBlocks).
type lineScratch struct {
	cx   *engine.ConeExec
	prop []uint64
}

// replayOrder returns a deterministic iteration order over the lines:
// always-prop lines first (they emit without touching scratch), then lines
// grouped by first reachable output and ascending cone size, so
// consecutive replays compare against the same good-bank registers while
// the block is cache-hot. This is purely a locality heuristic — every emit
// writes only its own line's result slots, so results never depend on it.
func replayOrder(cps []*engine.ConeProgram) []int {
	// Packed sort keys: (first output register + 1) high, cone size middle,
	// index low — one flat slices.Sort instead of a comparator sort.
	keys := make([]uint64, len(cps))
	for i, cp := range cps {
		var reg uint64
		if !cp.AlwaysProp() && len(cp.Outputs) > 0 {
			reg = uint64(cp.Outputs[0].Good) + 1
		}
		size := min(len(cp.Instrs), 1<<20-1)
		keys[i] = reg<<40 | uint64(size)<<20 | uint64(i)
	}
	slices.Sort(keys)
	order := make([]int, len(cps))
	for i, k := range keys {
		order[i] = int(k & (1<<20 - 1))
	}
	return order
}

// streamLines evaluates the good machine over U in word blocks and, for
// every requested line, replays the line-flipped fanout cone per block.
// emit(li, lo, prop, x) is called once per (line, block) pair with the
// block's propagation words (prop[w] bit b = flipping lines[li] changes
// some output at vector 64·(lo+w)+b) and the good-machine block x for
// activation masking. Callers must treat prop as read-only and write only
// into word range [lo, lo+len(prop)) of their results; emit may run
// concurrently for different lines or blocks, so the schedule is
// byte-identical for every worker count.
func (e *Exhaustive) streamLines(lines []int, emit func(li, lo int, prop []uint64, x *engine.Exec)) {
	if len(lines) == 0 {
		return
	}
	nWords := universeWords(e.Circuit.VectorSpaceSize())
	cps := e.conesFor(lines)
	order := replayOrder(cps)
	maxRegs := 0
	for _, cp := range cps {
		maxRegs = max(maxRegs, cp.NumRegs)
	}

	if nWords <= smallUniverseWords {
		// One shared good block, lines fan out across the workers, each
		// reusing pooled cone scratch.
		x := engine.NewExec(e.prog, nWords)
		x.Eval(0, nWords)
		ones := onesBlock[:nWords]
		var pool sync.Pool
		ParallelFor(e.Workers, len(lines), func(oi int) {
			li := order[oi]
			cp := cps[li]
			if cp.AlwaysProp() {
				emit(li, 0, ones, x)
				return
			}
			s, _ := pool.Get().(*lineScratch)
			if s == nil {
				s = &lineScratch{cx: engine.NewConeExec(nWords), prop: make([]uint64, nWords)}
				s.cx.Reserve(maxRegs)
			}
			s.cx.PropInto(cp, x, s.prop)
			emit(li, 0, s.prop, x)
			pool.Put(s)
		})
		return
	}

	// Large universe: blocks fan out, each worker streaming whole blocks
	// through every line with its own scratch register files.
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
		for _, li := range order {
			cp := cps[li]
			if cp.AlwaysProp() {
				emit(li, lo, onesBlock[:hi-lo], x)
				continue
			}
			prop := s.prop[:hi-lo]
			s.cx.PropInto(cp, x, prop)
			emit(li, lo, prop, x)
		}
		pool.Put(s)
	})
}
