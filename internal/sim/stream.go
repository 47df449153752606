package sim

import (
	"slices"

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
// block: the good machine is evaluated once per worker and the parallelism
// comes from fanning the items out instead (matching the pre-engine
// fault-level pools, which is what the benchmark-suite circuits exercise).
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

// blockScratch is one worker's state for blockTasks, kept for the
// worker's lifetime, so a block is evaluated once per worker: good holds
// block number block of U (−1 before the first), forced is a second bank
// for engine.Exec.EvalForced when asked for, cx replays cones, and prop is
// a buffer of the block's length.
type blockScratch struct {
	good, forced *engine.Exec
	cx           *engine.ConeExec
	buf, prop    []uint64
	block        int
}

// blockTasks runs fn(k, lo, s) for every word block of U and every k in
// [0, items), block-major, over the workers. s.good holds the block
// [lo, lo+len(s.prop)), evaluated once per scratch and block. fn must
// write only into that word range of its results, which keeps every worker
// schedule byte-identical. A universe of at most smallUniverseWords words
// is one block, so its items fan out; larger ones fan out blocks too.
// maxRegs presizes the cone replay bank, and forced allocates s.forced.
func (e *Exhaustive) blockTasks(items, maxRegs int, forced bool, fn func(k, lo int, s *blockScratch)) {
	nWords := universeWords(e.Circuit.VectorSpaceSize())
	blockWords := nWords
	if nWords > smallUniverseWords {
		blockWords = blockWordsFor(nWords, e.Workers)
	}
	blocks := blockRanges(nWords, blockWords)
	scratch := make([]*blockScratch, ResolveWorkers(e.Workers))
	ParallelFor(e.Workers, len(blocks)*items, func(w, t int) {
		s := scratch[w]
		if s == nil {
			s = &blockScratch{
				good:  engine.NewExec(e.prog, blockWords),
				cx:    engine.NewConeExec(blockWords),
				buf:   make([]uint64, blockWords),
				block: -1,
			}
			if forced {
				s.forced = engine.NewExec(e.prog, blockWords)
			}
			s.cx.Reserve(maxRegs)
			scratch[w] = s
		}
		bi := t / items
		lo, hi := blocks[bi][0], blocks[bi][1]
		if s.block != bi {
			s.good.Eval(lo, hi)
			s.block = bi
			s.prop = s.buf[:hi-lo]
		}
		fn(t%items, lo, s)
	})
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
	cps := e.conesFor(lines)
	order := replayOrder(cps)
	maxRegs := 0
	for _, cp := range cps {
		maxRegs = max(maxRegs, cp.NumRegs)
	}
	e.blockTasks(len(lines), maxRegs, false, func(k, lo int, s *blockScratch) {
		li := order[k]
		if cp := cps[li]; cp.AlwaysProp() {
			emit(li, lo, onesBlock[:len(s.prop)], s.good)
		} else {
			s.cx.PropInto(cp, s.good, s.prop)
			emit(li, lo, s.prop, s.good)
		}
	})
}
