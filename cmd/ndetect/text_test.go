package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ndetect/internal/exp"
	"ndetect/internal/report"
)

var updateGolden = flag.Bool("update", false, "rewrite the text-report golden files in testdata/")

// TestRenderTextGolden pins the text report of representative runs against
// testdata/*.txt — the bytes `ndetect` prints for the flags in each case's
// comment. Regenerate with `go test ./cmd/ndetect -update`.
//
// Each case also renders the document after an encode/decode round trip:
// the two renderings must be identical, so the text depends on nothing but
// the document -json prints and ndetectd serves.
func TestRenderTextGolden(t *testing.T) {
	for _, tc := range []struct {
		golden      string
		bench       string
		req         exp.AnalysisRequest
		worst, hist int
	}{
		// ndetect -bench bbtas
		{"bbtas", "bbtas", exp.AnalysisRequest{Kind: exp.WorstCaseAnalysis}, 10, 0},
		// ndetect -bench bbtas -avg -nmax 2 -k 100
		{"bbtas_avg", "bbtas", exp.AnalysisRequest{Kind: exp.AverageAnalysis, NMax: 2, K: 100, Seed: 1}, 10, 0},
		// ndetect -bench lion -avg: nothing above nmax 10 to estimate
		{"lion_avg", "lion", exp.AnalysisRequest{Kind: exp.AverageAnalysis, NMax: 10, K: 1000, Seed: 1}, 10, 0},
		// ndetect -bench w64 -partition 16
		{"w64_partition16", "w64", exp.AnalysisRequest{Kind: exp.PartitionedAnalysis, MaxInputs: 16}, 10, 0},
		// ndetect -bench bbtas -fault-model transition
		{"bbtas_transition", "bbtas", exp.AnalysisRequest{Kind: exp.WorstCaseAnalysis, FaultModel: "transition"}, 10, 0},
		// ndetect -bench bbtas -fault-model transition -worst 0 -hist 50
		{"bbtas_transition_hist", "bbtas", exp.AnalysisRequest{Kind: exp.WorstCaseAnalysis, FaultModel: "transition"}, 0, 50},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			c, err := loadCircuit(tc.bench, "", "", "net", false)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := exp.AnalyzeCircuit(c, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := renderText(doc, tc.worst, tc.hist)
			if err != nil {
				t.Fatal(err)
			}

			decoded, err := report.DecodeAnalysis(doc.Encode())
			if err != nil {
				t.Fatal(err)
			}
			again, err := renderText(decoded, tc.worst, tc.hist)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, got) {
				t.Fatalf("rendering the decoded document differs:\n%s\nwant:\n%s", again, got)
			}

			path := filepath.Join("testdata", tc.golden+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("text report differs from %s (regenerate with -update if intended):\n%s", path, got)
			}
		})
	}
}
