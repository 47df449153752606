package partition

import (
	"sort"
	"sync"
	"sync/atomic"

	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
	"ndetect/internal/sim"
)

// PartAnalysis is the worst-case analysis of one part, summarized so the
// part's universe (whose per-fault T-sets can dominate memory for wide
// parts, even though the streaming engine materializes no per-node values)
// is released as soon as the part completes.
type PartAnalysis struct {
	Part *Part
	// Stats describes the part's subcircuit.
	Stats circuit.Stats
	// Targets and DetectableTargets count the part's collapsed stuck-at
	// universe; Untargeted counts its detectable bridging faults.
	Targets           int
	DetectableTargets int
	Untargeted        int
	// NMin maps each of the part's bridging faults (by name) to its
	// per-part nmin. Per-part values are relative to the part's own input
	// space and outputs — see the package comment for what that
	// approximates.
	NMin map[string]int
}

// CoverageAt returns the fraction (0..1) of the part's bridging faults
// with nmin ≤ n.
func (a *PartAnalysis) CoverageAt(n int) float64 {
	if len(a.NMin) == 0 {
		return 1
	}
	c := 0
	for _, v := range a.NMin {
		if v <= n {
			c++
		}
	}
	return float64(c) / float64(len(a.NMin))
}

// AnalysisResult is the outcome of the end-to-end partitioned pipeline:
// per-part summaries in Split order plus the MergeNMin combination.
type AnalysisResult struct {
	Circuit string
	// MaxInputs is the effective per-part input limit used by Split.
	MaxInputs int
	Parts     []*PartAnalysis
	// Merged maps every bridging fault seen by any part to the smallest
	// per-part nmin (a guarantee through any part is a guarantee overall).
	Merged map[string]int
}

// MergedNames returns the merged fault names in sorted order — the
// deterministic iteration order reports should use.
func (r *AnalysisResult) MergedNames() []string {
	names := make([]string, 0, len(r.Merged))
	for k := range r.Merged {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// MergedCoverageAt returns the fraction (0..1) of merged faults with
// nmin ≤ n.
func (r *AnalysisResult) MergedCoverageAt(n int) float64 {
	if len(r.Merged) == 0 {
		return 1
	}
	c := 0
	for _, v := range r.Merged {
		if v <= n {
			c++
		}
	}
	return float64(c) / float64(len(r.Merged))
}

// MergedCountAtLeast returns the number of merged faults with nmin ≥ n
// (Unbounded included).
func (r *AnalysisResult) MergedCountAtLeast(n int) int {
	c := 0
	for _, v := range r.Merged {
		if v >= n {
			c++
		}
	}
	return c
}

// MergedMaxFinite returns the largest finite merged nmin, or 0 if none.
func (r *AnalysisResult) MergedMaxFinite() int {
	best := 0
	for _, v := range r.Merged {
		if v != ndetect.Unbounded && v > best {
			best = v
		}
	}
	return best
}

// AnalyzeParts runs the paper's Section 4 workaround end to end: Split the
// circuit into ≤ MaxInputs-input output cones, run the exhaustive
// worst-case analysis on every part, and merge the per-part nmin verdicts.
//
// Parts fan out across a bounded pool with the same budget-splitting rule
// as the experiment drivers (sim.SplitWorkers, DESIGN.md §5): with W
// workers and P parts, min(W, P) parts run concurrently and each receives
// ⌊W / min(W, P)⌋ inner workers for its simulation, T-set construction
// and worst-case scan, keeping CPU-bound goroutines ≈ W and bounding live
// part universes at min(W, P). Results are assembled in Split order, so the output is
// identical for every worker count (0 = one worker per CPU, 1 = the exact
// serial pass).
func AnalyzeParts(c *circuit.Circuit, opts Options, workers int) (*AnalysisResult, error) {
	parts, err := Split(c, opts)
	if err != nil {
		return nil, err
	}

	outer, inner := sim.SplitWorkers(workers, len(parts))

	analyses := make([]*PartAnalysis, len(parts))
	errs := make([]error, len(parts))
	var failed atomic.Bool
	var progressMu sync.Mutex
	finished := 0
	sim.ParallelFor(outer, len(parts), func(i int) {
		if failed.Load() {
			return
		}
		a, err := analyzeOne(parts[i], inner)
		if err != nil {
			errs[i] = err
			failed.Store(true)
			return
		}
		analyses[i] = a
		if opts.Progress != nil {
			progressMu.Lock()
			finished++
			opts.Progress(finished, len(parts))
			progressMu.Unlock()
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	perPart := make([]map[string]int, len(analyses))
	for i, a := range analyses {
		perPart[i] = a.NMin
	}
	return &AnalysisResult{
		Circuit:   c.Name,
		MaxInputs: opts.effectiveMaxInputs(),
		Parts:     analyses,
		Merged:    MergeNMin(perPart),
	}, nil
}

// analyzeOne builds one part's fault universe and worst-case result with
// the given inner worker budget, and summarizes it.
func analyzeOne(p *Part, workers int) (*PartAnalysis, error) {
	u, err := ndetect.BuildUniverse(p.Circuit, fault.Default(), ndetect.AnalyzeOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	wc := ndetect.WorstCaseWorkers(&u.Universe, workers)
	nmin := make(map[string]int, len(u.Untargeted))
	for j, g := range u.Untargeted {
		nmin[g.Name] = wc.NMin[j]
	}
	return &PartAnalysis{
		Part:              p,
		Stats:             p.Circuit.ComputeStats(),
		Targets:           len(u.Targets),
		DetectableTargets: u.DetectableTargets(),
		Untargeted:        len(u.Untargeted),
		NMin:              nmin,
	}, nil
}
