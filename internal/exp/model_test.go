package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ndetect/internal/fault"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files in testdata/")

// modelsUnderTest returns the fault models this run covers: every model,
// or only $NDETECT_MODEL when set — the CI fault-model matrix runs one
// model per step that way.
func modelsUnderTest(t *testing.T) []string {
	t.Helper()
	if id := os.Getenv("NDETECT_MODEL"); id != "" {
		if _, err := fault.Resolve(id); err != nil {
			t.Fatalf("NDETECT_MODEL: %v", err)
		}
		return []string{id}
	}
	return fault.ModelIDs()
}

// goldenPath maps a model ID onto its golden file ("+" and "/" are not
// filename-safe).
func goldenPath(id string) string {
	safe := strings.NewReplacer("+", "_", "/", "_").Replace(id)
	return filepath.Join("testdata", "c17_worstcase_"+safe+".json")
}

// Per fault model: AnalyzeCircuit's bytes are independent of the worker
// count, and the worst-case document for the embedded c17 matches the
// committed golden file — so a refactor of any model's T-set builder that
// changes result bytes (fault order, nmin values, identity hash) fails
// loudly. Regenerate with `go test ./internal/exp -run PerModel -update`.
func TestAnalyzeCircuitPerModelDeterministic(t *testing.T) {
	for _, id := range modelsUnderTest(t) {
		t.Run(id, func(t *testing.T) {
			reqs := []AnalysisRequest{
				{Kind: WorstCaseAnalysis, FaultModel: id},
				{Kind: AverageAnalysis, FaultModel: id, NMax: 2, K: 40, Seed: 7},
			}
			for _, req := range reqs {
				req.Workers = 1
				serial, err := AnalyzeCircuit(mustEmbedded(t, "c17"), req)
				if err != nil {
					t.Fatalf("%s serial: %v", req.Kind, err)
				}
				req.Workers = 8
				parallel, err := AnalyzeCircuit(mustEmbedded(t, "c17"), req)
				if err != nil {
					t.Fatalf("%s parallel: %v", req.Kind, err)
				}
				if !bytes.Equal(serial.Encode(), parallel.Encode()) {
					t.Fatalf("%s: workers=1 and workers=8 bytes differ", req.Kind)
				}

				if req.Kind != WorstCaseAnalysis {
					continue
				}
				path := goldenPath(id)
				if *updateGolden {
					if err := os.WriteFile(path, serial.Encode(), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with -update)", err)
				}
				if !bytes.Equal(serial.Encode(), want) {
					t.Fatalf("%s: worst-case document drifted from %s:\ngot:\n%s\nwant:\n%s",
						id, path, serial.Encode(), want)
				}
			}
		})
	}
}
