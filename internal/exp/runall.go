package exp

import (
	"ndetect/internal/ndetect"
	"ndetect/internal/report"
)

// AllResults bundles everything one full reproduction pass computes.
type AllResults struct {
	Table2  []report.Table2Row
	Table3  []report.Table3Row
	Table5  []report.Table5Row
	Table6  []report.Table6Row
	Figure2 string
}

// allCircuit is the per-circuit artifact RunAll's workers produce: every row
// the circuit contributes, computed while the circuit's universe is live,
// summarized so the universe can be released before assembly.
type allCircuit struct {
	t2      report.Table2Row
	t3      report.Table3Row
	hasT3   bool
	t5      report.Table5Row
	hasT5   bool
	t6      report.Table6Row
	hasT6   bool
	figure2 string
}

// RunAll regenerates every table (and, when figure2Circuit is non-empty,
// Figure 2) in a single pass over the benchmark suite: each circuit is
// synthesized and analysed once, summarized into every applicable row, and
// released. Circuits fan out across cfg.Workers goroutines; rows are
// assembled in circuitList() order afterwards, so the tables are identical
// to the serial pass for any worker count. withT5/withT6 gate the expensive
// average-case passes.
func RunAll(cfg Config, figure2Circuit string, withT5, withT6 bool, observe func(string)) (*AllResults, error) {
	cfg.normalize()
	obs := observer(observe)
	per, err := mapCircuits(&cfg, func(name string, workers int) (allCircuit, error) {
		run, err := runCircuit(name, workers)
		if err != nil {
			return allCircuit{}, err
		}
		a := allCircuit{t2: Table2Row(run)}
		ge11 := run.WC.CountAtLeast(11)
		if ge11 > 0 {
			a.t3, a.hasT3 = Table3Row(run), true
		}

		if figure2Circuit == name {
			cutoff := 100
			for cutoff > 10 && run.WC.CountAtLeast(cutoff) == 0 {
				cutoff /= 2
			}
			values, counts := run.WC.Histogram(cutoff)
			unbounded := 0
			for _, v := range run.WC.NMin {
				if v == ndetect.Unbounded {
					unbounded++
				}
			}
			a.figure2 = report.FormatFigure2(name, cutoff, values, counts, unbounded)
		}

		if ge11 > 0 && (withT5 || withT6) {
			// One nmin ≥ 11 subset serves both average-case passes.
			idx := ge11Subset(run, cfg.Ge11Limit)
			sub := run.Universe.SubsetUntargeted(idx)
			if withT5 {
				res, err := ndetect.Procedure1(sub, ndetect.Procedure1Options{
					NMax: cfg.NMax, K: cfg.K5, Seed: cfg.Seed, Workers: workers,
				})
				if err != nil {
					return allCircuit{}, err
				}
				a.t5, a.hasT5 = thresholdRow(name, res, cfg.NMax), true
			}
			if withT6 {
				row, err := table6Row(&cfg, name, run, idx, sub, workers)
				if err != nil {
					return allCircuit{}, err
				}
				a.t6, a.hasT6 = row, true
			}
		}
		if obs != nil {
			obs(name)
		}
		return a, nil
	})
	if err != nil {
		return nil, err
	}

	out := &AllResults{}
	for _, a := range per {
		out.Table2 = append(out.Table2, a.t2)
		if a.hasT3 {
			out.Table3 = append(out.Table3, a.t3)
		}
		if a.hasT5 {
			out.Table5 = append(out.Table5, a.t5)
		}
		if a.hasT6 {
			out.Table6 = append(out.Table6, a.t6)
		}
		if a.figure2 != "" {
			out.Figure2 = a.figure2
		}
	}
	return out, nil
}
