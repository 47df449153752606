// Package report renders the paper's tables and figure from computed
// analysis results, in layouts mirroring the originals, plus CSV export for
// downstream processing.
package report

import (
	"fmt"
	"strings"
)

// NMinColumns are the n values of Table 2's "nmin(gj) ≤" columns.
var NMinColumns = []int{1, 2, 3, 4, 5, 10}

// Table3Columns are the thresholds of Table 3's "nmin(gj) ≥" columns.
var Table3Columns = []int{100, 20, 11}

// Thresholds is the probability ladder of Tables 5 and 6.
var Thresholds = []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.0}

// Table2Row is one circuit's worst-case coverage row.
type Table2Row struct {
	Circuit string
	Faults  int
	Pct     [6]float64 // percentage of faults with nmin ≤ 1,2,3,4,5,10
}

// FormatTable2 renders Table 2: "Worst-case percentages of detected faults
// (small n)". Like the paper, columns after the first 100.00 are left blank.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: Worst-case percentages of detected faults (small n)\n")
	fmt.Fprintf(&b, "%-10s %8s", "circuit", "faults")
	for _, n := range NMinColumns {
		fmt.Fprintf(&b, " %8s", fmt.Sprintf("≤%d", n))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %8d", r.Circuit, r.Faults)
		done := false
		for i := range NMinColumns {
			if done {
				fmt.Fprintf(&b, " %8s", "")
				continue
			}
			fmt.Fprintf(&b, " %8.2f", r.Pct[i])
			if r.Pct[i] >= 100-1e-9 {
				done = true
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table3Row is one circuit's worst-case tail row.
type Table3Row struct {
	Circuit           string
	Faults            int
	Ge100, Ge20, Ge11 int
}

// FormatTable3 renders Table 3: "Worst-case numbers of detected faults
// (large n)", with percentages in parentheses as in the paper.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("Table 3: Worst-case numbers of detected faults (large n)\n")
	fmt.Fprintf(&b, "%-10s %8s %16s %16s %16s\n", "circuit", "faults", "nmin≥100", "nmin≥20", "nmin≥11")
	for _, r := range rows {
		cell := func(c int) string {
			return fmt.Sprintf("%d (%.2f)", c, 100*float64(c)/float64(max(r.Faults, 1)))
		}
		fmt.Fprintf(&b, "%-10s %8d %16s %16s %16s\n",
			r.Circuit, r.Faults, cell(r.Ge100), cell(r.Ge20), cell(r.Ge11))
	}
	return b.String()
}

// Table5Row is one circuit's average-case row: counts of faults with
// p(n,g) at or above each threshold.
type Table5Row struct {
	Circuit string
	Faults  int
	Counts  [11]int
}

// FormatTable5 renders Table 5: "Average-case probabilities of detection"
// p(n,gj), for the run's n (the paper's is 10). Mirroring the paper, once
// a column reaches the full fault count the remaining cells are blank
// ("we do not enter a number for a given probability if all the faults
// have a higher probability of detection").
func FormatTable5(rows []Table5Row, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: Average-case probabilities of detection  p(%d,gj) ≥\n", n)
	fmt.Fprintf(&b, "%-10s %7s", "circuit", "faults")
	for _, th := range Thresholds {
		fmt.Fprintf(&b, " %6.1f", th)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %7d", r.Circuit, r.Faults)
		b.WriteString(formatThresholdCells(r.Counts[:], r.Faults))
		b.WriteByte('\n')
	}
	return b.String()
}

// formatThresholdCells renders cumulative threshold counts, blanking cells
// after the count saturates at the total.
func formatThresholdCells(counts []int, total int) string {
	var b strings.Builder
	done := false
	for _, c := range counts {
		if done {
			fmt.Fprintf(&b, " %6s", "")
			continue
		}
		fmt.Fprintf(&b, " %6d", c)
		if c >= total {
			done = true
		}
	}
	return b.String()
}

// Table6Row is one circuit's Definition 1 vs Definition 2 comparison.
type Table6Row struct {
	Circuit string
	Faults  int
	Def1    [11]int
	Def2    [11]int
}

// FormatTable6 renders Table 6: "Average-case probabilities of detection
// under Definitions 1 and 2" p(n,gj), for the run's n — two rows per
// circuit as in the paper.
func FormatTable6(rows []Table6Row, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6: Average-case probabilities of detection under Definitions 1 and 2  p(%d,gj) ≥\n", n)
	fmt.Fprintf(&b, "%-10s %7s %4s", "circuit", "faults", "def")
	for _, th := range Thresholds {
		fmt.Fprintf(&b, " %6.1f", th)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %7d %4d%s\n", r.Circuit, r.Faults, 1, formatThresholdCells(r.Def1[:], r.Faults))
		fmt.Fprintf(&b, "%-10s %7s %4d%s\n", "", "", 2, formatThresholdCells(r.Def2[:], r.Faults))
	}
	return b.String()
}

// Figure2 is the data of the paper's Figure 2 (shown there for dvram with
// cutoff 100): how many untargeted faults have each nmin(g) value at or
// above a cutoff.
type Figure2 struct {
	Circuit string
	Cutoff  int
	Values  []int // the nmin values ≥ Cutoff that occur, ascending
	Counts  []int // Counts[i] faults have nmin = Values[i]
	// Unbounded is the count of faults with no finite guarantee, reported
	// as its own bucket.
	Unbounded int
}

// FormatFigure2 renders the histogram as horizontal ASCII bars.
func FormatFigure2(f Figure2) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: Distribution of nmin(gj) for %s (nmin ≥ %d)\n", f.Circuit, f.Cutoff)
	maxCount := 1
	for _, c := range f.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if f.Unbounded > maxCount {
		maxCount = f.Unbounded
	}
	const width = 50
	bar := func(c int) string {
		n := c * width / maxCount
		if c > 0 && n == 0 {
			n = 1
		}
		return strings.Repeat("#", n)
	}
	for i, v := range f.Values {
		fmt.Fprintf(&b, "%7d | %-*s %d\n", v, width, bar(f.Counts[i]), f.Counts[i])
	}
	if f.Unbounded > 0 {
		fmt.Fprintf(&b, "%7s | %-*s %d\n", "∞", width, bar(f.Unbounded), f.Unbounded)
	}
	if len(f.Values) == 0 && f.Unbounded == 0 {
		fmt.Fprintf(&b, "  (no faults with nmin ≥ %d)\n", f.Cutoff)
	}
	return b.String()
}

// CSVTable2 renders Table 2 rows as CSV.
func CSVTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("circuit,faults,le1,le2,le3,le4,le5,le10\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%d", r.Circuit, r.Faults)
		for _, p := range r.Pct {
			fmt.Fprintf(&b, ",%.2f", p)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSVTable3 renders Table 3 rows as CSV.
func CSVTable3(rows []Table3Row) string {
	var b strings.Builder
	b.WriteString("circuit,faults,ge100,ge20,ge11\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d\n", r.Circuit, r.Faults, r.Ge100, r.Ge20, r.Ge11)
	}
	return b.String()
}

// csvThresholds is the header of the p(n,gj) ≥ columns of Tables 5 and 6.
const csvThresholds = "p1.0,p0.9,p0.8,p0.7,p0.6,p0.5,p0.4,p0.3,p0.2,p0.1,p0.0"

// CSVTable5 renders Table 5 rows as CSV.
func CSVTable5(rows []Table5Row) string {
	var b strings.Builder
	b.WriteString("circuit,faults," + csvThresholds + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%d", r.Circuit, r.Faults)
		writeCSVCounts(&b, r.Counts[:])
	}
	return b.String()
}

// CSVTable6 renders Table 6 rows as CSV: like the formatted table, two
// rows per circuit, one per definition.
func CSVTable6(rows []Table6Row) string {
	var b strings.Builder
	b.WriteString("circuit,faults,def," + csvThresholds + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%d,1", r.Circuit, r.Faults)
		writeCSVCounts(&b, r.Def1[:])
		fmt.Fprintf(&b, "%s,%d,2", r.Circuit, r.Faults)
		writeCSVCounts(&b, r.Def2[:])
	}
	return b.String()
}

// writeCSVCounts ends a CSV row with its threshold counts.
func writeCSVCounts(b *strings.Builder, counts []int) {
	for _, c := range counts {
		fmt.Fprintf(b, ",%d", c)
	}
	b.WriteByte('\n')
}

// CSVFigure2 renders the Figure 2 histogram as CSV: one row per nmin
// value, then the unbounded faults as nmin "inf".
func CSVFigure2(f Figure2) string {
	var b strings.Builder
	b.WriteString("nmin,count\n")
	for i, v := range f.Values {
		fmt.Fprintf(&b, "%d,%d\n", v, f.Counts[i])
	}
	if f.Unbounded > 0 {
		fmt.Fprintf(&b, "inf,%d\n", f.Unbounded)
	}
	return b.String()
}
