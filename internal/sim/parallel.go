package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolution: everywhere in this package a worker count of 0 (or
// negative) means "one worker per available CPU", and 1 means the exact
// serial execution order of the original implementation. Because every
// parallel site writes into pre-allocated, index-addressed slots, the output
// is byte-identical for every worker count; only wall-clock time changes.

// ResolveWorkers maps the public 0-means-auto convention onto a concrete
// worker count.
func ResolveWorkers(workers int) int {
	if workers <= 0 {
		// ndetect:allow(detrand) the CPU count sizes the worker pool only;
		// results are byte-identical for every worker count (see above).
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// SplitWorkers is the §5 budget split between two levels of fan-out over
// n items (circuits, sweep variants, partition parts): with W =
// ResolveWorkers(workers), min(W, n) items run at once and each gets
// ⌊W / min(W, n)⌋ inner workers, at least 1. Total CPU-bound goroutines
// stay ≈ W instead of W², and at most min(W, n) items are live at once.
// n = 0 gives outer 0 and inner 1.
func SplitWorkers(workers, n int) (outer, inner int) {
	total := ResolveWorkers(workers)
	outer = min(total, n)
	inner = 1
	if outer > 0 {
		inner = max(1, total/outer)
	}
	return outer, inner
}

// ParallelFor runs fn(i) for every i in [0, n), fanned out over at most
// `workers` goroutines pulling indices from a shared atomic counter (work
// stealing, so heterogeneous per-index costs balance). workers ≤ 1 runs the
// loop inline in index order. fn must write only to per-index state. It is
// the one worker pool every parallel site in the engine shares (exp's
// circuit fan-out included).
//
// A panic in fn never escapes on a worker goroutine, where nothing could
// recover it: the pool stops handing out indices, joins, and re-raises the
// first panic on the calling goroutine, as the inline loop would.
func ParallelFor(workers, n int, fn func(i int)) {
	parallelFor(workers, n, func(_, i int) { fn(i) })
}

// parallelFor is ParallelFor that also passes fn the number w of the
// worker running it, w < ResolveWorkers(workers), so callers can keep
// per-worker state in a slice without synchronization.
func parallelFor(workers, n int, fn func(w, i int)) {
	workers = ResolveWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var once sync.Once
	var raised any
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		// ndetect:allow(budget) ParallelFor IS the budget primitive: it
		// spawns exactly the granted worker count and joins before returning.
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					next.Store(int64(n))
					once.Do(func() { raised = r })
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	if raised != nil {
		panic(raised)
	}
}

// Streaming block sizing: a block is the unit of work the engine's word
// interpreter processes at once. Blocks must be small enough that one
// block's register file stays cache-resident and enough blocks exist to
// feed every worker, and large enough to amortize the per-block pass over
// the instruction list.
const (
	// minBlockWords is the smallest block worth its per-block overhead
	// (2^12 vectors).
	minBlockWords = 64
	// maxBlockWords caps the block so NumRegs × maxBlockWords × 8 bytes of
	// scratch per worker stays cache-friendly (2^14 vectors → 2 KiB per
	// register).
	maxBlockWords = 256
)

// blockWordsFor picks the streaming block width for a universe of nWords
// words: aim for at least four blocks per worker so the work-stealing loop
// balances, clamped to [minBlockWords, maxBlockWords]. The choice affects
// only scheduling — block boundaries never change any computed value.
func blockWordsFor(nWords, workers int) int {
	w := nWords / (4 * ResolveWorkers(workers))
	if w < minBlockWords {
		return minBlockWords
	}
	if w > maxBlockWords {
		return maxBlockWords
	}
	return w
}

// blockRanges splits [0, nWords) into contiguous blocks of blockWords words
// (the last block may be short). It always returns at least one block.
func blockRanges(nWords, blockWords int) [][2]int {
	if nWords <= 0 {
		nWords = 1
	}
	out := make([][2]int, 0, (nWords+blockWords-1)/blockWords)
	for lo := 0; lo < nWords; lo += blockWords {
		hi := lo + blockWords
		if hi > nWords {
			hi = nWords
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}
