package main

import (
	"bytes"
	"fmt"
	"sort"

	"ndetect/internal/circuit"
	"ndetect/internal/exp"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
	"ndetect/internal/report"
)

// renderText renders an analysis document as the human-readable report:
// the worst-case summary, its hardest faults (the first `worst`; 0 = off),
// the Figure 2 histogram from cutoff hist (0 = off) and the Procedure 1
// summary when the document has one, or the partitioned report. It reads
// nothing but the document, so the text is a view of the very bytes -json
// prints and ndetectd serves.
func renderText(doc *report.Analysis, worst, hist int) ([]byte, error) {
	var b bytes.Buffer
	ci := doc.Circuit
	stats := circuit.Stats{
		Inputs: ci.Inputs, Outputs: ci.Outputs, Gates: ci.Gates, MultiInputGates: ci.MultiInputGates,
		Branches: ci.Branches, MaxLevel: ci.Depth, VectorSpaceSize: ci.VectorSpace,
	}
	fmt.Fprintf(&b, "circuit %s: %s\n", ci.Name, stats)
	if p := doc.Partitioned; p != nil {
		writePartitioned(&b, p, worst)
		return b.Bytes(), nil
	}

	model, err := fault.Resolve(doc.Options.FaultModel)
	if err != nil {
		return nil, err
	}
	if doc.Options.FaultModel != "" {
		// The default model's output predates the registry; non-default
		// models announce themselves.
		fmt.Fprintf(&b, "fault model: %s\n", model.ID())
	}
	wc := doc.WorstCase
	fmt.Fprintf(&b, "targets |F| = %d %s (%d detectable)\n",
		wc.Targets, model.Provider(fault.TargetSet).Label(), wc.DetectableTargets)
	fmt.Fprintf(&b, "untargeted |G| = %d %s\n\n", wc.Untargeted, model.Provider(fault.UntargetedSet).Label())

	b.WriteString("worst-case analysis (Section 2):\n")
	for _, p := range wc.Coverage {
		fmt.Fprintf(&b, "  nmin(g) ≤ %-3d : %6.2f%% of G guaranteed by any %d-detection test set\n", p.N, p.Pct, p.N)
	}
	writeTail(&b, wc.Tail)
	if wc.Unbounded > 0 {
		fmt.Fprintf(&b, "  no guarantee   : %d faults (no target fault's tests overlap theirs)\n", wc.Unbounded)
	}
	fmt.Fprintf(&b, "  largest finite nmin: %d\n\n", wc.MaxFinite)

	if worst > 0 {
		writeHardest(&b, "untargeted", wc.NMin, worst)
		b.WriteByte('\n')
	}
	if hist > 0 {
		values, counts := exp.WorstCaseOf(wc.NMin).Histogram(hist)
		fmt.Fprintln(&b, report.FormatFigure2(ci.Name, hist, values, counts, wc.Unbounded))
	}
	if doc.Average != nil {
		writeAverage(&b, doc.Average, doc.Options)
	}
	return b.Bytes(), nil
}

// writeTail renders the "nmin(g) ≥ n" rows of Table 3.
func writeTail(b *bytes.Buffer, tail []report.TailPoint) {
	for _, p := range tail {
		fmt.Fprintf(b, "  nmin(g) ≥ %-3d : %d faults (%.2f%%)\n", p.N, p.Count, p.Pct)
	}
}

// writeHardest lists the n faults with the largest nmin, unbounded ones
// first. Ties keep document order: canonical fault order for a worst-case
// document, sorted names for a partitioned merge.
func writeHardest(b *bytes.Buffer, kind string, faults []report.FaultNMin, n int) {
	nmin := exp.WorstCaseOf(faults).NMin
	order := make([]int, len(faults))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return nmin[order[x]] > nmin[order[y]] })
	n = min(n, len(order))
	fmt.Fprintf(b, "hardest %d %s faults:\n", n, kind)
	for _, i := range order[:n] {
		nm := fmt.Sprint(nmin[i])
		if nmin[i] == ndetect.Unbounded {
			nm = "∞"
		}
		fmt.Fprintf(b, "  %-28s nmin = %s\n", faults[i].Name, nm)
	}
}

// writeAverage renders the Procedure 1 summary over the faults the worst
// case leaves unsettled.
func writeAverage(b *bytes.Buffer, avg *report.Average, opts report.Options) {
	n := opts.NMax
	if avg.Faults == 0 {
		fmt.Fprintf(b, "average-case analysis: every untargeted fault is guaranteed at n ≤ %d; nothing to estimate\n", n)
		return
	}
	fmt.Fprintf(b, "average-case analysis (Definition %d, K=%d) over the %d faults with nmin > %d:\n",
		avg.Definition, opts.K, avg.Faults, n)
	for _, th := range avg.Thresholds {
		fmt.Fprintf(b, "  p(%d,g) ≥ %.1f : %d faults\n", n, th.P, th.Count)
	}
	fmt.Fprintf(b, "  lowest p(%d,g) = %.3f (%s)\n", n, avg.MinP, avg.MinPFault)
	fmt.Fprintf(b, "  expected escapes from an arbitrary %d-detection test set: %.2f faults\n", n, avg.ExpectedEscapes)
	fmt.Fprintf(b, "  mean %d-detection test set size: %.1f vectors\n", n, avg.MeanSetSize)
}

// writePartitioned renders the Section 4 pipeline: per-part statistics in
// Split order, then the merged worst-case table.
func writePartitioned(b *bytes.Buffer, p *report.Partitioned, worst int) {
	fmt.Fprintf(b, "partitioned into %d output-cone parts (input limit %d):\n", len(p.Parts), p.MaxInputs)
	for i, a := range p.Parts {
		fmt.Fprintf(b, "  part %d: outputs %v, %d inputs (|U| = %d), %d gates, |F| = %d (%d detectable), |G| = %d, coverage at n=10: %.2f%%\n",
			i, a.Outputs, a.Inputs, a.VectorSpace, a.Gates, a.Targets, a.DetectableTargets, a.Untargeted, a.CoverageAt10Pct)
	}

	fmt.Fprintf(b, "\nmerged worst-case table over %d distinct bridging faults (per-part bounds, Section 4):\n", p.MergedFaults)
	for _, pt := range p.Coverage {
		fmt.Fprintf(b, "  nmin(g) ≤ %-3d : %6.2f%% guaranteed by any %d-detection test set (within some part)\n", pt.N, pt.Pct, pt.N)
	}
	writeTail(b, p.Tail)
	if p.Unbounded > 0 {
		fmt.Fprintf(b, "  no guarantee   : %d faults (undetectable through every part that sees them)\n", p.Unbounded)
	}
	fmt.Fprintf(b, "  largest finite nmin: %d\n", p.MaxFinite)

	if worst > 0 {
		b.WriteByte('\n')
		writeHardest(b, "bridging", p.Merged, worst)
	}
}
