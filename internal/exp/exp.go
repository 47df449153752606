// Package exp is the one analysis driver: AnalyzeCircuit shapes a single
// circuit's worst-case, average-case or partitioned analysis into the
// report.Analysis document, Sweep runs a grid of option variants over one
// shared universe, and RunAll reads the rows of the paper's Tables 2, 3, 5
// and 6 and the Figure 2 histogram off per-circuit sweeps of the
// benchmark suite.
package exp

import (
	"sort"
	"sync/atomic"

	"ndetect/internal/bench"
	"ndetect/internal/sim"
)

// Config controls an experiment run.
type Config struct {
	// Circuits restricts the run (nil = every benchmark).
	Circuits []string
	// NMax is the deepest n-detection level (paper: 10).
	NMax int
	// K5 is the number of random test sets for Table 5 (paper: 10000).
	K5 int
	// K6 is the number of random test sets for Table 6 (paper: 1000).
	K6 int
	// Seed drives all randomized parts deterministically (0 = 1, the
	// AnalysisRequest default).
	Seed int64
	// Ge11Limit caps the size of the nmin > NMax subset fed to the
	// average-case analysis (0 = no cap); at the paper's NMax = 10 that
	// is its nmin ≥ 11 subset. The surrogate circuits can have
	// substantially larger tails than the paper's; the cap keeps Table 5/6
	// regeneration affordable while preserving the distribution shape
	// (faults are kept in nmin order).
	Ge11Limit int
	// Workers bounds the parallelism of the run at every level: circuits
	// fan out across a bounded pool, and each circuit's share goes to its
	// Sweep, which splits it between its variants and threads it into
	// T-set construction, the worst case and Procedure 1. 0 = one worker
	// per CPU; 1 is the serial pass. Tables are identical for every
	// value — rows are always emitted in circuitList() order.
	Workers int
}

// normalize fills defaults.
func (c *Config) normalize() {
	if c.NMax <= 0 {
		c.NMax = 10
	}
	if c.K5 <= 0 {
		c.K5 = 1000
	}
	if c.K6 <= 0 {
		c.K6 = 200
	}
}

// circuitList resolves the configured circuit set.
func (c *Config) circuitList() []string {
	if len(c.Circuits) > 0 {
		return c.Circuits
	}
	names := make([]string, 0)
	for _, b := range bench.All() {
		names = append(names, b.Name)
	}
	return names
}

// fanOut is the package's one two-level fan-out, shared by RunAll's
// circuits, Sweep's variants and a partitioned analysis's parts. It runs
// fn(i, inner) for every i in [0, n) across a bounded pool (work-stealing,
// so cheap items do not idle a worker while a big one runs) and returns
// the results in index order regardless of completion order. The workers
// budget is split between the levels rather than multiplied
// (sim.SplitWorkers, DESIGN.md §5): fn receives the inner worker count to
// thread into its own stages, so total CPU-bound goroutines stay ≈ workers
// instead of workers², and at most min(workers, n) items are live at once.
// On error the remaining unstarted items are abandoned and the error of
// the earliest-indexed failed item is returned; indices are handed out in
// order, so that is the error the serial pass would return.
func fanOut[T any](workers, n int, fn func(i, inner int) (T, error)) ([]T, error) {
	vals := make([]T, n)
	errs := make([]error, n)

	outer, inner := sim.SplitWorkers(workers, n)
	var failed atomic.Bool
	sim.ParallelFor(outer, n, func(_, i int) {
		if failed.Load() {
			return
		}
		v, err := fn(i, inner)
		if err != nil {
			errs[i] = err
			failed.Store(true)
			return
		}
		vals[i] = v
	})

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// capEvenly caps a fault-index subset at limit entries by sampling evenly
// across the nmin-sorted list — keeping the distribution shape rather than
// truncating one end (DESIGN.md §4). idx is returned unchanged when limit
// is 0 or already satisfied; it is sorted in place otherwise.
func capEvenly(idx []int, nmin []int, limit int) []int {
	if limit <= 0 || len(idx) <= limit {
		return idx
	}
	sort.SliceStable(idx, func(a, b int) bool { return nmin[idx[a]] < nmin[idx[b]] })
	out := make([]int, 0, limit)
	step := float64(len(idx)) / float64(limit)
	for i := 0; i < limit; i++ {
		out = append(out, idx[int(float64(i)*step)])
	}
	return out
}
