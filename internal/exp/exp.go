// Package exp orchestrates the paper's experiments over the benchmark
// suite: it drives synthesis, universe construction, the worst-case and
// average-case analyses, and shapes the results into the rows of Tables
// 2, 3, 5 and 6 and the Figure 2 histogram.
package exp

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ndetect/internal/bench"
	"ndetect/internal/ndetect"
	"ndetect/internal/report"
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
	// Seed drives all randomized parts deterministically.
	Seed int64
	// Ge11Limit caps the size of the nmin ≥ 11 subset fed to the
	// average-case analysis (0 = no cap). The surrogate circuits can have
	// substantially larger tails than the paper's; the cap keeps Table 5/6
	// regeneration affordable while preserving the distribution shape
	// (faults are kept in nmin order).
	Ge11Limit int
	// Workers bounds the parallelism of the run at every level: circuits
	// fan out across a bounded pool, and the same count is threaded into
	// the per-circuit block-streaming T-set kernel (engine word blocks or
	// fault-level fan-out, whichever the universe size favors) and into
	// Procedure 1. 0 = one worker per CPU; 1 reproduces the original
	// serial pass. Tables are identical for every value — rows are always
	// emitted in circuitList() order.
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

// CircuitRun is the per-circuit artifact of the worst-case pass.
type CircuitRun struct {
	Name     string
	Universe *ndetect.CircuitUniverse
	WC       *ndetect.WorstCaseResult
}

// runCircuit synthesizes one benchmark and runs the worst-case analysis
// with the given worker count threaded into every stage — exhaustive
// simulation, T-set construction and the worst-case scan (0 = one per
// CPU). mapCircuits passes its split per-circuit budget here, so the
// stages never multiply it back up.
func runCircuit(name string, workers int) (*CircuitRun, error) {
	b, ok := bench.ByName(name)
	if !ok {
		return nil, fmt.Errorf("exp: unknown benchmark %q", name)
	}
	r, err := b.SynthesizeDefault()
	if err != nil {
		return nil, err
	}
	u, err := ndetect.FromCircuitWorkers(r.Circuit, workers)
	if err != nil {
		return nil, err
	}
	return &CircuitRun{Name: name, Universe: u, WC: ndetect.WorstCaseWorkers(&u.Universe, workers)}, nil
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

// mapCircuits is RunAll's circuit-level fan-out: it runs fn once per
// configured circuit across a bounded pool (work-stealing over the circuit
// list, so cheap circuits do not idle a worker while a big one runs) and
// returns the results in circuitList() order — the serial row order of the
// paper's tables — regardless of completion order. The cfg.Workers budget
// is split between the levels rather than multiplied (sim.SplitWorkers):
// fn receives the inner worker count to thread into the per-circuit
// simulation and Procedure 1, so total CPU-bound goroutines stay ≈ Workers
// instead of Workers², and at most min(Workers, circuits) universes are
// live at once. On error the remaining unstarted circuits are abandoned
// and the error of the earliest-indexed failed circuit is returned.
func mapCircuits[T any](cfg *Config, fn func(name string, workers int) (T, error)) ([]T, error) {
	names := cfg.circuitList()
	vals := make([]T, len(names))
	errs := make([]error, len(names))

	outer, inner := sim.SplitWorkers(cfg.Workers, len(names))
	var failed atomic.Bool
	sim.ParallelFor(outer, len(names), func(i int) {
		if failed.Load() {
			return
		}
		v, err := fn(names[i], inner)
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

// observer serializes a progress callback across the circuit workers.
// Callbacks fire in completion order, not row order.
func observer[T any](observe func(T)) func(T) {
	if observe == nil {
		return nil
	}
	var mu sync.Mutex
	return func(v T) {
		mu.Lock()
		defer mu.Unlock()
		observe(v)
	}
}

// Table2Row summarizes one circuit's worst-case run as a Table 2 row.
func Table2Row(run *CircuitRun) report.Table2Row {
	row := report.Table2Row{
		Circuit: run.Name,
		Faults:  len(run.Universe.Untargeted),
	}
	for i, n := range report.NMinColumns {
		row.Pct[i] = 100 * run.WC.CoverageAt(n)
	}
	return row
}

// Table3Row summarizes one circuit's worst-case run as a Table 3 row.
func Table3Row(run *CircuitRun) report.Table3Row {
	return report.Table3Row{
		Circuit: run.Name,
		Faults:  len(run.Universe.Untargeted),
		Ge100:   run.WC.CountAtLeast(100),
		Ge20:    run.WC.CountAtLeast(20),
		Ge11:    run.WC.CountAtLeast(11),
	}
}

// ge11Subset returns the indices of the nmin ≥ 11 faults in index order,
// or, capped, an even sample of them in nmin order (hardest last).
func ge11Subset(run *CircuitRun, limit int) []int {
	return capEvenly(run.WC.IndicesAtLeast(11), run.WC.NMin, limit)
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

func thresholdRow(name string, res *ndetect.Procedure1Result, n int) report.Table5Row {
	row := report.Table5Row{Circuit: name, Faults: len(res.Detected[n-1])}
	counts := res.ThresholdCounts(n)
	copy(row.Counts[:], counts)
	return row
}

// table6Row computes one circuit's Definition 1 vs 2 comparison over the
// nmin ≥ 11 subset RunAll already built, with its per-circuit worker
// budget.
func table6Row(cfg *Config, name string, run *CircuitRun, idx []int, sub *ndetect.Universe, workers int) (report.Table6Row, error) {
	opts := ndetect.Procedure1Options{NMax: cfg.NMax, K: cfg.K6, Seed: cfg.Seed, Workers: workers}
	r1, err := ndetect.Procedure1(sub, opts)
	if err != nil {
		return report.Table6Row{}, err
	}
	opts.Definition = ndetect.Def2
	opts.Checker = ndetect.NewCircuitCheckerFor(run.Universe)
	r2, err := ndetect.Procedure1(sub, opts)
	if err != nil {
		return report.Table6Row{}, err
	}
	row := report.Table6Row{Circuit: name, Faults: len(idx)}
	copy(row.Def1[:], r1.ThresholdCounts(cfg.NMax))
	copy(row.Def2[:], r2.ThresholdCounts(cfg.NMax))
	return row, nil
}
