package exp

import (
	"fmt"
	"strings"
	"testing"

	"ndetect/internal/bench"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
	"ndetect/internal/report"
)

// synthesized returns a benchmark's default synthesized circuit, as
// RunAll analyses it.
func synthesized(t *testing.T, name string) *circuit.Circuit {
	t.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	r, err := b.SynthesizeDefault()
	if err != nil {
		t.Fatal(err)
	}
	return r.Circuit
}

// worstCaseDoc returns the worst-case document of a synthesized benchmark.
func worstCaseDoc(t *testing.T, name string) *report.WorstCase {
	t.Helper()
	doc, err := AnalyzeCircuit(synthesized(t, name), AnalysisRequest{Kind: WorstCaseAnalysis})
	if err != nil {
		t.Fatal(err)
	}
	return doc.WorstCase
}

func TestTable2RowsConsistent(t *testing.T) {
	cfg := Config{Circuits: []string{"lion", "train4"}}
	res, err := RunAll(cfg, "", false, false, nil)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	rows := res.Table2
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		prev := 0.0
		for i, p := range r.Pct {
			if p < prev-1e-9 {
				t.Fatalf("%s: coverage not monotone at column %d", r.Circuit, i)
			}
			if p < 0 || p > 100+1e-9 {
				t.Fatalf("%s: coverage out of range: %v", r.Circuit, p)
			}
			prev = p
		}
	}
}

func TestTable3OnlyTailCircuits(t *testing.T) {
	cfg := Config{Circuits: []string{"lion", "log"}}
	res, err := RunAll(cfg, "", false, false, nil)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	rows := res.Table3
	if len(rows) != 1 {
		t.Fatalf("Table 3 rows = %d, want 1 (log)", len(rows))
	}
	for _, r := range rows {
		if r.Ge11 == 0 {
			t.Fatalf("circuit %s with no tail included in Table 3", r.Circuit)
		}
		if r.Ge100 > r.Ge20 || r.Ge20 > r.Ge11 {
			t.Fatalf("%s: tail counts not monotone: %d %d %d", r.Circuit, r.Ge100, r.Ge20, r.Ge11)
		}
	}
	// lion has no tail; it must be absent.
	for _, r := range rows {
		if r.Circuit == "lion" {
			t.Fatal("lion must not appear in Table 3")
		}
	}
}

func TestFigure2AdaptsCutoff(t *testing.T) {
	// bbara has a tail that tops out well below 100: the cutoff adapts.
	res, err := RunAll(Config{Circuits: []string{"bbara"}}, "bbara", false, false, nil)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	s := report.FormatFigure2(*res.Figure2)
	if !strings.Contains(s, "bbara") {
		t.Fatalf("figure missing circuit name:\n%s", s)
	}
	if strings.Contains(s, "no faults with") {
		t.Fatalf("cutoff did not adapt:\n%s", s)
	}
}

func TestTable5RowShape(t *testing.T) {
	cfg := Config{Circuits: []string{"lion", "bbara"}, K5: 40, Seed: 3}
	res, err := RunAll(cfg, "", true, false, nil)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	rows := res.Table5
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	r := rows[0]
	prev := 0
	for i, c := range r.Counts {
		if c < prev {
			t.Fatalf("threshold counts not cumulative at %d: %v", i, r.Counts)
		}
		prev = c
	}
	if r.Counts[10] != r.Faults {
		t.Fatalf("p ≥ 0 column (%d) must equal the fault count (%d)", r.Counts[10], r.Faults)
	}
}

func TestGe11SubsetSampling(t *testing.T) {
	wc := WorstCaseOf(worstCaseDoc(t, "log").NMin)
	full := capEvenly(wc.IndicesAtLeast(11), wc.NMin, 0)
	if len(full) != wc.CountAtLeast(11) {
		t.Fatalf("uncapped subset size %d != CountAtLeast(11) %d", len(full), wc.CountAtLeast(11))
	}
	capped := capEvenly(wc.IndicesAtLeast(11), wc.NMin, 10)
	if len(full) > 10 && len(capped) != 10 {
		t.Fatalf("capped subset size = %d, want 10", len(capped))
	}
	seen := map[int]bool{}
	for _, j := range capped {
		if seen[j] {
			t.Fatal("duplicate index in capped subset")
		}
		seen[j] = true
		if wc.NMin[j] < 11 {
			t.Fatal("capped subset contains a fault below the nmin threshold")
		}
	}

	// Tie-heavy: the cap samples the nmin-sorted list, and ties keep their
	// input order (a stable sort), so the picks are exactly these. Sorted:
	// 11 → 1 3 5 8 11 13 16 18, 12 → 0 2 6 10 14 15 19, 13 → 9 12,
	// 15 → 7 17, unbounded → 4. Twenty entries put the sort past the size
	// at which an unstable sort still happens to keep tie order.
	nmin := []int{12, 11, 12, 11, ndetect.Unbounded, 11, 12, 15, 11, 13, 12, 11, 13, 11, 12, 12, 11, 15, 11, 12}
	for _, tc := range []struct {
		limit int
		want  []int
	}{
		{5, []int{1, 11, 0, 14, 12}},       // positions 0 4 8 12 16 (step 4)
		{7, []int{1, 5, 13, 0, 10, 19, 7}}, // positions 0 2 5 8 11 14 17 (step 20/7)
	} {
		idx := make([]int, len(nmin))
		for i := range idx {
			idx[i] = i
		}
		if got := capEvenly(idx, nmin, tc.limit); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("capEvenly(limit %d) = %v, want %v", tc.limit, got, tc.want)
		}
	}
}

func TestRunAllSinglePass(t *testing.T) {
	cfg := Config{Circuits: []string{"lion", "bbara"}, K5: 20, K6: 10, Ge11Limit: 20, Seed: 5}
	var observed []string
	res, err := RunAll(cfg, "bbara", true, true, func(n string) { observed = append(observed, n) })
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(res.Table2) != 2 {
		t.Fatalf("Table2 rows = %d", len(res.Table2))
	}
	if len(observed) != 2 {
		t.Fatalf("observe callback fired %d times", len(observed))
	}
	if res.Figure2 == nil {
		t.Fatal("Figure2 missing")
	}
	// bbara has a (small) tail → appears in tables 3, 5, 6.
	foundT3 := false
	for _, r := range res.Table3 {
		if r.Circuit == "bbara" {
			foundT3 = true
		}
	}
	if !foundT3 {
		t.Fatal("bbara missing from Table 3")
	}
	if len(res.Table5) != 1 || len(res.Table6) != 1 {
		t.Fatalf("T5/T6 rows = %d/%d, want 1/1", len(res.Table5), len(res.Table6))
	}
	// Definition 2 should never be strictly worse in the final column and
	// the fault totals must agree between the two definitions.
	t6 := res.Table6[0]
	if t6.Def1[10] != t6.Def2[10] {
		t.Fatalf("Def1/Def2 totals differ: %d vs %d", t6.Def1[10], t6.Def2[10])
	}
}

func TestRunAllDeterministic(t *testing.T) {
	cfg := Config{Circuits: []string{"bbara"}, K5: 30, Seed: 9}
	a, err := RunAll(cfg, "", true, false, nil)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	b, err := RunAll(cfg, "", true, false, nil)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(a.Table5) != len(b.Table5) {
		t.Fatal("nondeterministic row count")
	}
	for i := range a.Table5 {
		if a.Table5[i] != b.Table5[i] {
			t.Fatalf("nondeterministic Table 5 row %d: %v vs %v", i, a.Table5[i], b.Table5[i])
		}
	}
}

// TestGuaranteeAcrossPipeline is the central end-to-end property: on a real
// synthesized circuit, every fault the worst-case analysis guarantees at
// n ≤ nmax is detected by every random n-detection test set Procedure 1
// produces.
func TestGuaranteeAcrossPipeline(t *testing.T) {
	u, err := ndetect.BuildUniverse(synthesized(t, "beecount"), fault.Default(), ndetect.AnalyzeOptions{})
	if err != nil {
		t.Fatalf("BuildUniverse: %v", err)
	}
	wc := ndetect.WorstCaseWorkers(&u.Universe, 0)
	res, err := ndetect.Procedure1(&u.Universe, ndetect.Procedure1Options{
		NMax: 5, K: 25, Seed: 13, KeepTestSets: true,
	})
	if err != nil {
		t.Fatalf("Procedure1: %v", err)
	}
	for j, g := range u.Untargeted {
		nm := wc.NMin[j]
		if nm > 5 {
			continue
		}
		for n := nm; n <= 5; n++ {
			for k, tk := range res.TestSets[n-1] {
				if !tk.Detects(g) {
					t.Fatalf("guarantee violated: %s nmin=%d missed by %d-detection set %d",
						g.Name, nm, n, k)
				}
			}
		}
	}
}

func TestTable2RowAgainstReport(t *testing.T) {
	wc := worstCaseDoc(t, "lion")
	row := table2Row("lion", wc)
	if row.Faults != wc.Untargeted {
		t.Fatalf("row has %d faults, document %d", row.Faults, wc.Untargeted)
	}
	for i, p := range wc.Coverage {
		if row.Pct[i] != p.Pct {
			t.Fatalf("column %d: row %v, document %v", i, row.Pct[i], p.Pct)
		}
	}
	out := report.FormatTable2([]report.Table2Row{row})
	if !strings.Contains(out, "lion") {
		t.Fatal("row lost its circuit name")
	}
}

// WorstCaseOf inverts the document's encoding of nmin: -1 is Unbounded
// again, and a real document's verdicts are the core worst case's.
func TestWorstCaseOfInvertsDocument(t *testing.T) {
	got := WorstCaseOf([]report.FaultNMin{{Name: "a", NMin: 3}, {Name: "b", NMin: report.UnboundedJSON}})
	if fmt.Sprint(got.NMin) != fmt.Sprint([]int{3, ndetect.Unbounded}) {
		t.Fatalf("WorstCaseOf = %v", got.NMin)
	}

	c, err := circuit.Canonicalize(synthesized(t, "bbara"))
	if err != nil {
		t.Fatal(err)
	}
	u, err := ndetect.BuildUniverse(c, fault.Default(), ndetect.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := ndetect.WorstCaseWorkers(&u.Universe, 0).NMin
	if got := WorstCaseOf(worstCaseDoc(t, "bbara").NMin).NMin; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatal("WorstCaseOf of bbara's document differs from the core worst case")
	}
}

// RunAll's Table 5 and 6 rows are the faults and threshold counts of the
// average documents AnalyzeCircuit returns for the same circuit, NMax, K,
// seed, definition and cap: the tables and `ndetect -avg` are one
// pipeline.
func TestRunAllMatchesAnalyzeCircuit(t *testing.T) {
	cfg := Config{Circuits: []string{"bbara", "log"}, NMax: 10, K5: 30, K6: 15, Seed: 1, Ge11Limit: 500}
	res, err := RunAll(cfg, "", true, true, nil)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(res.Table5) != len(cfg.Circuits) || len(res.Table6) != len(cfg.Circuits) {
		t.Fatalf("T5/T6 rows = %d/%d, want %d each", len(res.Table5), len(res.Table6), len(cfg.Circuits))
	}
	for i, name := range cfg.Circuits {
		c := synthesized(t, name)
		average := func(k, def int) *report.Average {
			doc, err := AnalyzeCircuit(c, AnalysisRequest{
				Kind: AverageAnalysis, NMax: cfg.NMax, K: k, Seed: cfg.Seed,
				Definition: def, Ge11Limit: cfg.Ge11Limit,
			})
			if err != nil {
				t.Fatal(err)
			}
			return doc.Average
		}
		check := func(what, circuit string, faults int, counts []int, want *report.Average) {
			t.Helper()
			if circuit != name || faults != want.Faults || len(want.Thresholds) != len(counts) {
				t.Fatalf("%s %s: row %s with %d faults, document %d faults and %d thresholds",
					name, what, circuit, faults, want.Faults, len(want.Thresholds))
			}
			for j, th := range want.Thresholds {
				if counts[j] != th.Count {
					t.Fatalf("%s %s: p ≥ %.1f row count %d, document %d", name, what, th.P, counts[j], th.Count)
				}
			}
		}
		t5, t6 := res.Table5[i], res.Table6[i]
		check("Table 5", t5.Circuit, t5.Faults, t5.Counts[:], average(cfg.K5, 1))
		check("Table 6 Definition 1", t6.Circuit, t6.Faults, t6.Def1[:], average(cfg.K6, 1))
		check("Table 6 Definition 2", t6.Circuit, t6.Faults, t6.Def2[:], average(cfg.K6, 2))
	}
}
