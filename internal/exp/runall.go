package exp

import (
	"fmt"
	"sync"

	"ndetect/internal/bench"
	"ndetect/internal/report"
)

// AllResults bundles everything one full reproduction pass computes.
type AllResults struct {
	// NMax is the n of Tables 5 and 6, p(n,g): Config.NMax after defaults.
	NMax   int
	Table2 []report.Table2Row
	Table3 []report.Table3Row
	Table5 []report.Table5Row
	Table6 []report.Table6Row
	// Figure2 is the histogram of RunAll's figure2Circuit; nil when none
	// was asked for or the circuit was not run.
	Figure2 *report.Figure2
}

// allCircuit is every row one circuit contributes, summarized from its
// documents so they can be released before assembly. A nil row is a table
// the circuit does not appear in.
type allCircuit struct {
	t2      report.Table2Row
	t3      *report.Table3Row
	t5      *report.Table5Row
	t6      *report.Table6Row
	figure2 *report.Figure2
}

// RunAll regenerates every table (and, when figure2Circuit is non-empty,
// Figure 2) in a single pass over the benchmark suite. Each circuit is
// synthesized and analysed by one Sweep: the worst-case variant, plus a
// Definition 1 variant at K5 for Table 5 and Definition 1 and 2 variants
// at K6 for Table 6, all with cfg's NMax, Seed and Ge11Limit. Every row is
// read off those documents, which are the bytes `ndetect -json` and
// ndetectd emit for the same options. Circuits fan out across cfg.Workers
// goroutines; rows are assembled in circuitList() order afterwards, so the
// tables are identical for any worker count. withT5/withT6 gate the
// expensive average-case variants. observe, when non-nil, is called with
// each circuit's name as it finishes, in completion order, one call at a
// time.
func RunAll(cfg Config, figure2Circuit string, withT5, withT6 bool, observe func(string)) (*AllResults, error) {
	cfg.normalize()
	average := func(k, def int) AnalysisRequest {
		return AnalysisRequest{
			Kind: AverageAnalysis, NMax: cfg.NMax, K: k, Seed: cfg.Seed,
			Definition: def, Ge11Limit: cfg.Ge11Limit,
		}
	}
	variants := []AnalysisRequest{{Kind: WorstCaseAnalysis}}
	if withT5 {
		variants = append(variants, average(cfg.K5, 1))
	}
	if withT6 {
		variants = append(variants, average(cfg.K6, 1), average(cfg.K6, 2))
	}

	names := cfg.circuitList()
	var observeMu sync.Mutex
	per, err := fanOut(cfg.Workers, len(names), func(i, workers int) (allCircuit, error) {
		name := names[i]
		b, ok := bench.ByName(name)
		if !ok {
			return allCircuit{}, fmt.Errorf("exp: unknown benchmark %q", name)
		}
		r, err := b.SynthesizeDefault()
		if err != nil {
			return allCircuit{}, err
		}
		docs, err := Sweep(r.Circuit, variants, SweepOptions{Workers: workers})
		if err != nil {
			return allCircuit{}, err
		}
		a := allCircuit{t2: table2Row(name, docs[0].WorstCase)}
		if row := table3Row(name, docs[0].WorstCase); row.Ge11 > 0 {
			a.t3 = &row
		}
		if figure2Circuit == name {
			a.figure2 = figure2(name, docs[0].WorstCase)
		}
		docs = docs[1:]
		if withT5 {
			if avg := docs[0].Average; avg.Faults > 0 {
				a.t5 = &report.Table5Row{Circuit: name, Faults: avg.Faults}
				thresholdCounts(a.t5.Counts[:], avg)
			}
			docs = docs[1:]
		}
		if withT6 {
			if d1, d2 := docs[0].Average, docs[1].Average; d1.Faults > 0 {
				a.t6 = &report.Table6Row{Circuit: name, Faults: d1.Faults}
				thresholdCounts(a.t6.Def1[:], d1)
				thresholdCounts(a.t6.Def2[:], d2)
			}
		}
		if observe != nil {
			observeMu.Lock()
			observe(name)
			observeMu.Unlock()
		}
		return a, nil
	})
	if err != nil {
		return nil, err
	}

	out := &AllResults{NMax: cfg.NMax}
	for _, a := range per {
		out.Table2 = append(out.Table2, a.t2)
		if a.t3 != nil {
			out.Table3 = append(out.Table3, *a.t3)
		}
		if a.t5 != nil {
			out.Table5 = append(out.Table5, *a.t5)
		}
		if a.t6 != nil {
			out.Table6 = append(out.Table6, *a.t6)
		}
		if a.figure2 != nil {
			out.Figure2 = a.figure2
		}
	}
	return out, nil
}

// table2Row reads a Table 2 row off a worst-case document: its coverage
// points are report.NMinColumns, in order.
func table2Row(name string, wc *report.WorstCase) report.Table2Row {
	row := report.Table2Row{Circuit: name, Faults: wc.Untargeted}
	for i, p := range wc.Coverage {
		row.Pct[i] = p.Pct
	}
	return row
}

// table3Row reads a Table 3 row off a worst-case document: its tail points
// are report.Table3Columns (100, 20, 11), in order.
func table3Row(name string, wc *report.WorstCase) report.Table3Row {
	return report.Table3Row{
		Circuit: name, Faults: wc.Untargeted,
		Ge100: wc.Tail[0].Count, Ge20: wc.Tail[1].Count, Ge11: wc.Tail[2].Count,
	}
}

// figure2 reads a worst-case document's nmin histogram (the paper's
// Figure 2). The cutoff starts at 100 and halves while it is above 10 and
// no fault reaches it.
func figure2(name string, wc *report.WorstCase) *report.Figure2 {
	res := WorstCaseOf(wc.NMin)
	cutoff := 100
	for cutoff > 10 && res.CountAtLeast(cutoff) == 0 {
		cutoff /= 2
	}
	values, counts := res.Histogram(cutoff)
	return &report.Figure2{Circuit: name, Cutoff: cutoff, Values: values, Counts: counts, Unbounded: wc.Unbounded}
}

// thresholdCounts copies an average document's cumulative threshold
// counts, one per report.Thresholds entry, into dst.
func thresholdCounts(dst []int, avg *report.Average) {
	for i, th := range avg.Thresholds {
		dst[i] = th.Count
	}
}
