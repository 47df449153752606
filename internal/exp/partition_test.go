package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"ndetect/internal/bench"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
	"ndetect/internal/partition"
	"ndetect/internal/report"
)

// w64PartitionedSHA256 is the digest of the w64 document at max_inputs 16,
// the same bytes as perfbench's partitioned/w64/m16 reference.
const w64PartitionedSHA256 = "9256d05ea44995ef59e5dc32f21426a4a42c2f6bc2de714724fac34148d996be"

// partitioned runs the partitioned analysis of an embedded .bench sample.
func partitioned(t *testing.T, name string, maxInputs, workers int) *report.Analysis {
	t.Helper()
	doc, err := AnalyzeCircuit(mustEmbedded(t, name), AnalysisRequest{
		Kind: PartitionedAnalysis, MaxInputs: maxInputs, Workers: workers,
	})
	if err != nil {
		t.Fatalf("%s at %d inputs: %v", name, maxInputs, err)
	}
	return doc
}

// The partitioned documents are pinned at 1 and 3 workers: c17 and s27 in
// testdata (two parts each), w64 by digest (eight parts). Regenerate the
// files with `go test ./internal/exp -run PartitionedGolden -update`.
func TestPartitionedGolden(t *testing.T) {
	for _, tc := range []struct {
		name      string
		maxInputs int
		parts     int
	}{{"c17", 4, 2}, {"s27", 6, 2}, {"w64", 16, 8}} {
		for _, workers := range []int{1, 3} {
			doc := partitioned(t, tc.name, tc.maxInputs, workers)
			if got := len(doc.Partitioned.Parts); got != tc.parts {
				t.Fatalf("%s at %d inputs: %d parts, want %d", tc.name, tc.maxInputs, got, tc.parts)
			}
			got := doc.Encode()
			if tc.name == "w64" {
				sum := sha256.Sum256(got)
				if hex.EncodeToString(sum[:]) != w64PartitionedSHA256 {
					t.Fatalf("w64 at 16 inputs, workers %d: digest %x, want %s", workers, sum, w64PartitionedSHA256)
				}
				continue
			}
			path := filepath.Join("testdata", fmt.Sprintf("%s_partitioned_m%d.json", tc.name, tc.maxInputs))
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, workers %d: document drifted from %s:\ngot:\n%s\nwant:\n%s", tc.name, workers, path, got, want)
			}
		}
	}
}

// One part at MaxInputs = the circuit's input count is the whole circuit,
// so the merged rows must be the worst-case document's rows sorted by
// name, and the summary fields must match. This is the pipeline's
// soundness anchor: Split → Extract → per-part analysis → merge perturbs
// nothing when a part is the circuit. For tighter limits the per-part
// values are approximations (DESIGN.md §8), so no numbers are compared.
func TestPartitionedSinglePartMatchesWorstCase(t *testing.T) {
	for _, name := range []string{"lion", "train4", "dk27", "mc", "bbara"} {
		b, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		r, err := b.SynthesizeDefault()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := r.Circuit
		wdoc, err := AnalyzeCircuit(c, AnalysisRequest{Kind: WorstCaseAnalysis})
		if err != nil {
			t.Fatalf("%s worst case: %v", name, err)
		}
		pdoc, err := AnalyzeCircuit(c, AnalysisRequest{Kind: PartitionedAnalysis, MaxInputs: c.NumInputs()})
		if err != nil {
			t.Fatalf("%s partitioned: %v", name, err)
		}
		wc, p := wdoc.WorstCase, pdoc.Partitioned
		if len(p.Parts) != 1 {
			t.Fatalf("%s: limit %d produced %d parts, want 1", name, c.NumInputs(), len(p.Parts))
		}
		want := append([]report.FaultNMin(nil), wc.NMin...)
		sort.Slice(want, func(i, j int) bool { return want[i].Name < want[j].Name })
		if fmt.Sprint(p.Merged) != fmt.Sprint(want) {
			t.Fatalf("%s: merged rows differ from the sorted worst-case rows:\n got %v\nwant %v", name, p.Merged, want)
		}
		if p.MergedFaults != wc.Untargeted || p.Unbounded != wc.Unbounded || p.MaxFinite != wc.MaxFinite ||
			fmt.Sprint(p.Coverage, p.Tail) != fmt.Sprint(wc.Coverage, wc.Tail) {
			t.Fatalf("%s: merged summary differs from the worst case:\n got %d %v %v %d %d\nwant %d %v %v %d %d", name,
				p.MergedFaults, p.Coverage, p.Tail, p.Unbounded, p.MaxFinite,
				wc.Untargeted, wc.Coverage, wc.Tail, wc.Unbounded, wc.MaxFinite)
		}
		part := p.Parts[0]
		if part.Targets != wc.Targets || part.DetectableTargets != wc.DetectableTargets || part.Untargeted != wc.Untargeted ||
			part.CoverageAt10Pct != wc.Coverage[len(wc.Coverage)-1].Pct {
			t.Fatalf("%s: the one part %+v disagrees with the worst case %d/%d/%d %v",
				name, part, wc.Targets, wc.DetectableTargets, wc.Untargeted, wc.Coverage)
		}
	}
}

// The worker count must not change a partitioned document: same parts in
// the same order, same rows, same bytes.
func TestPartitionedWorkersDeterministic(t *testing.T) {
	want := partitioned(t, "w64", 16, 1).Encode()
	for _, workers := range []int{2, 8, 0} {
		if got := partitioned(t, "w64", 16, workers).Encode(); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d document differs from serial:\n got %s\nwant %s", workers, got, want)
		}
	}
}

// The merged rows are exactly MergeNMin over an independent per-part
// analysis of the canonical circuit's parts, in sorted name order, and the
// summary fields count those rows.
func TestPartitionedMergeConsistency(t *testing.T) {
	c, err := circuit.Canonicalize(mustEmbedded(t, "w64"))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := partition.Split(c, partition.Options{MaxInputs: 16})
	if err != nil {
		t.Fatal(err)
	}
	perPart := make([]map[string]int, len(parts))
	for i, p := range parts {
		u, err := ndetect.BuildUniverse(p.Circuit, fault.Default(), ndetect.AnalyzeOptions{Workers: 1})
		if err != nil {
			t.Fatalf("part %d: %v", i, err)
		}
		wc := ndetect.WorstCaseWorkers(&u.Universe, 1)
		perPart[i] = make(map[string]int, len(u.Untargeted))
		for j, g := range u.Untargeted {
			if wc.NMin[j] < 1 {
				t.Fatalf("part %d: bridge %s has nmin %d < 1", i, g.Name, wc.NMin[j])
			}
			perPart[i][g.Name] = wc.NMin[j]
		}
	}
	merged := partition.MergeNMin(perPart)

	p := partitioned(t, "w64", 16, 0).Partitioned
	if len(p.Parts) != len(parts) {
		t.Fatalf("document has %d parts, Split gives %d", len(p.Parts), len(parts))
	}
	for i, part := range p.Parts {
		if fmt.Sprint(part.Outputs) != fmt.Sprint(parts[i].Outputs) || part.Untargeted != len(perPart[i]) {
			t.Fatalf("part %d: %+v, Split gives outputs %v with %d bridges", i, part, parts[i].Outputs, len(perPart[i]))
		}
	}
	if p.MergedFaults != len(merged) || len(p.Merged) != len(merged) {
		t.Fatalf("merged_faults %d, %d rows, MergeNMin %d", p.MergedFaults, len(p.Merged), len(merged))
	}
	for i, row := range p.Merged {
		if i > 0 && p.Merged[i-1].Name >= row.Name {
			t.Fatalf("merged rows not strictly sorted at %d: %s, %s", i, p.Merged[i-1].Name, row.Name)
		}
		want, ok := merged[row.Name]
		if want == ndetect.Unbounded {
			want = report.UnboundedJSON
		}
		if !ok || row.NMin != want {
			t.Fatalf("row %s: nmin %d, MergeNMin %d (present %v)", row.Name, row.NMin, want, ok)
		}
	}
	wc := WorstCaseOf(p.Merged)
	if p.Unbounded != wc.CountAtLeast(ndetect.Unbounded) || p.MaxFinite != wc.MaxFinite() {
		t.Fatalf("unbounded %d, max_finite %d; rows give %d, %d",
			p.Unbounded, p.MaxFinite, wc.CountAtLeast(ndetect.Unbounded), wc.MaxFinite())
	}
	for i, pt := range p.Coverage {
		if pt.N != report.NMinColumns[i] || pt.Pct != 100*wc.CoverageAt(pt.N) {
			t.Fatalf("coverage point %+v, rows give %v", pt, 100*wc.CoverageAt(pt.N))
		}
	}
	for i, pt := range p.Tail {
		if pt.N != report.Table3Columns[i] || pt.Count != wc.CountAtLeast(pt.N) {
			t.Fatalf("tail point %+v, rows give %d", pt, wc.CountAtLeast(pt.N))
		}
	}
}

// The parts progress stage reports every part once, in completion order,
// one call at a time: done counts 1..parts against total = parts.
func TestPartitionedProgress(t *testing.T) {
	var mu sync.Mutex
	var done []int
	doc, err := AnalyzeCircuit(mustEmbedded(t, "w64"), AnalysisRequest{
		Kind: PartitionedAnalysis, MaxInputs: 16, Workers: 3,
		Progress: func(stage string, d, total int) {
			mu.Lock()
			defer mu.Unlock()
			if stage != "parts" || total != 8 {
				t.Errorf("progress %s %d/%d, want parts of 8", stage, d, total)
			}
			done = append(done, d)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != len(doc.Partitioned.Parts) {
		t.Fatalf("%d progress calls for %d parts", len(done), len(doc.Partitioned.Parts))
	}
	for i, d := range done {
		if d != i+1 {
			t.Fatalf("progress done sequence %v, want 1..%d", done, len(done))
		}
	}
}

// A limit below the widest output cone is an error, not a partial result.
func TestPartitionedRejectsNarrowLimit(t *testing.T) {
	if _, err := AnalyzeCircuit(mustEmbedded(t, "w64"), AnalysisRequest{Kind: PartitionedAnalysis, MaxInputs: 4}); err == nil {
		t.Fatal("a limit below the widest cone was accepted")
	}
}
