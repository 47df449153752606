package report

import (
	"strings"
	"testing"
)

func TestFormatTable2BlanksAfterSaturation(t *testing.T) {
	rows := []Table2Row{
		{Circuit: "lion", Faults: 23, Pct: [6]float64{100, 100, 100, 100, 100, 100}},
		{Circuit: "bbara", Faults: 858, Pct: [6]float64{80.42, 84.85, 89.28, 89.51, 92.31, 97.55}},
	}
	out := FormatTable2(rows)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, two rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	lionLine := lines[2]
	if strings.Count(lionLine, "100.00") != 1 {
		t.Fatalf("lion row should print 100.00 once then blanks: %q", lionLine)
	}
	if !strings.Contains(lines[3], "97.55") || !strings.Contains(lines[3], "80.42") {
		t.Fatalf("bbara row incomplete: %q", lines[3])
	}
}

func TestFormatTable3Percentages(t *testing.T) {
	rows := []Table3Row{{Circuit: "dvram", Faults: 14737, Ge100: 1256, Ge20: 1653, Ge11: 1653}}
	out := FormatTable3(rows)
	if !strings.Contains(out, "1256 (8.52)") {
		t.Fatalf("percentage missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "1653 (11.22)") {
		t.Fatalf("percentage missing or wrong:\n%s", out)
	}
}

func TestFormatTable3ZeroFaults(t *testing.T) {
	// Degenerate row must not divide by zero.
	out := FormatTable3([]Table3Row{{Circuit: "x", Faults: 0}})
	if !strings.Contains(out, "0 (0.00)") {
		t.Fatalf("zero-fault row mishandled:\n%s", out)
	}
}

func TestFormatTable5Blanks(t *testing.T) {
	rows := []Table5Row{
		{Circuit: "ex4", Faults: 82, Counts: [11]int{32, 82, 82, 82, 82, 82, 82, 82, 82, 82, 82}},
	}
	out := FormatTable5(rows, 10)
	// After the count reaches 82 (threshold 0.9), later cells are blank.
	if strings.Count(out, "82") != 2 { // fault count column + first saturated cell
		t.Fatalf("expected blanks after saturation:\n%s", out)
	}
}

func TestFormatTable6TwoRowsPerCircuit(t *testing.T) {
	rows := []Table6Row{{
		Circuit: "bbara", Faults: 21,
		Def1: [11]int{1, 8, 14, 16, 16, 18, 19, 20, 21, 21, 21},
		Def2: [11]int{10, 18, 19, 20, 21, 21, 21, 21, 21, 21, 21},
	}}
	out := FormatTable6(rows, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want title+header+2 rows, got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "bbara") || strings.Contains(lines[3], "bbara") {
		t.Fatalf("circuit name placement wrong:\n%s", out)
	}
}

func TestFormatFigure2(t *testing.T) {
	out := FormatFigure2(Figure2{Circuit: "dvram", Cutoff: 100, Values: []int{105, 129}, Counts: []int{9, 10}})
	if !strings.Contains(out, "105") || !strings.Contains(out, "#") {
		t.Fatalf("histogram malformed:\n%s", out)
	}
	// Largest bucket gets the longest bar.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if strings.Count(lines[1], "#") >= strings.Count(lines[2], "#") {
		t.Fatalf("bar lengths not proportional:\n%s", out)
	}
}

func TestFormatFigure2Unbounded(t *testing.T) {
	out := FormatFigure2(Figure2{Circuit: "x", Cutoff: 100, Unbounded: 5})
	if !strings.Contains(out, "∞") {
		t.Fatalf("unbounded bucket missing:\n%s", out)
	}
	empty := FormatFigure2(Figure2{Circuit: "x", Cutoff: 100})
	if !strings.Contains(empty, "no faults") {
		t.Fatalf("empty histogram message missing:\n%s", empty)
	}
}

func TestCSVOutputs(t *testing.T) {
	t2 := CSVTable2([]Table2Row{{Circuit: "a", Faults: 3, Pct: [6]float64{1, 2, 3, 4, 5, 6}}})
	if !strings.HasPrefix(t2, "circuit,faults,le1") || !strings.Contains(t2, "a,3,1.00,2.00") {
		t.Fatalf("CSVTable2:\n%s", t2)
	}
	t3 := CSVTable3([]Table3Row{{Circuit: "a", Faults: 3, Ge100: 1, Ge20: 2, Ge11: 3}})
	if !strings.Contains(t3, "a,3,1,2,3") {
		t.Fatalf("CSVTable3:\n%s", t3)
	}
	t5 := CSVTable5([]Table5Row{{Circuit: "a", Faults: 2, Counts: [11]int{1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2}}})
	if !strings.Contains(t5, "a,2,1,1,1,1,1,2") {
		t.Fatalf("CSVTable5:\n%s", t5)
	}
	t6 := CSVTable6([]Table6Row{{Circuit: "a", Faults: 2,
		Def1: [11]int{1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2}, Def2: [11]int{2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2}}})
	if !strings.HasPrefix(t6, "circuit,faults,def,p1.0,") ||
		!strings.Contains(t6, "\na,2,1,1,1,1,1,1,2,2,2,2,2,2\na,2,2,2,") {
		t.Fatalf("CSVTable6:\n%s", t6)
	}
	fig := CSVFigure2(Figure2{Circuit: "a", Cutoff: 100, Values: []int{105, 129}, Counts: []int{9, 10}, Unbounded: 4})
	if fig != "nmin,count\n105,9\n129,10\ninf,4\n" {
		t.Fatalf("CSVFigure2:\n%s", fig)
	}
	// Line counts: header + one row each, two per circuit for Table 6.
	for name, c := range map[string]struct {
		s     string
		lines int
	}{"t2": {t2, 2}, "t3": {t3, 2}, "t5": {t5, 2}, "t6": {t6, 3}} {
		if got := strings.Count(c.s, "\n"); got != c.lines {
			t.Fatalf("%s has %d lines, want %d", name, got, c.lines)
		}
	}
}
