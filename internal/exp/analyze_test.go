package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"ndetect/internal/bench"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
	"ndetect/internal/report"
)

func mustEmbedded(t *testing.T, name string) *circuit.Circuit {
	t.Helper()
	c, err := circuit.EmbeddedBench(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// AnalyzeCircuit's bytes are the serving layer's cache contract: identical
// for every Workers value, for every analysis kind.
func TestAnalyzeCircuitWorkersDeterministic(t *testing.T) {
	reqs := []AnalysisRequest{
		{Kind: WorstCaseAnalysis},
		{Kind: AverageAnalysis, NMax: 2, K: 40, Seed: 7},
		{Kind: AverageAnalysis, NMax: 2, K: 40, Seed: 7, Definition: 2, Ge11Limit: 3},
	}
	for _, req := range reqs {
		c := mustEmbedded(t, "c17")
		req.Workers = 1
		serial, err := AnalyzeCircuit(c, req)
		if err != nil {
			t.Fatalf("%s serial: %v", req.Kind, err)
		}
		req.Workers = 8
		parallel, err := AnalyzeCircuit(c, req)
		if err != nil {
			t.Fatalf("%s parallel: %v", req.Kind, err)
		}
		if !bytes.Equal(serial.Encode(), parallel.Encode()) {
			t.Fatalf("%s: workers=1 and workers=8 bytes differ:\n%s\n---\n%s",
				req.Kind, serial.Encode(), parallel.Encode())
		}
	}
}

// warmUniverse hands out one universe, built on the first call, as
// perfbench's average-warm workload does.
type warmUniverse struct {
	once sync.Once
	u    *ndetect.CircuitUniverse
	err  error
}

func (w *warmUniverse) Universe(c *circuit.Circuit, m fault.Model, opts ndetect.AnalyzeOptions) (*ndetect.CircuitUniverse, error) {
	w.once.Do(func() { w.u, w.err = ndetect.BuildUniverse(c, m, opts) })
	return w.u, w.err
}

// perfbench's average-warm Definition 2 requests (bbara and opus, K = 5,
// NMax = 10), whose K test sets share one lock-free pair memo, give the
// same bytes at 1, 2 and 3 workers, and those bytes are the ones
// perfbench/digests.txt records.
func TestDef2RequestsWorkersDeterministic(t *testing.T) {
	raw, err := os.ReadFile("../../perfbench/digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if key, sum, ok := strings.Cut(line, " "); ok {
			digests[key] = sum
		}
	}
	for _, name := range []string{"bbara", "opus"} {
		b, _ := bench.ByName(name)
		r, err := b.SynthesizeDefault()
		if err != nil {
			t.Fatal(err)
		}
		warm := &warmUniverse{}
		for seed := int64(1); seed <= 3; seed++ {
			key := fmt.Sprintf("average/%s/def2/nmax10/k5/seed%d", name, seed)
			for _, w := range []int{1, 2, 3} {
				doc, err := AnalyzeCircuit(r.Circuit, AnalysisRequest{
					Kind: AverageAnalysis, NMax: 10, K: 5, Seed: seed, Definition: 2, Workers: w, Universes: warm,
				})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", key, w, err)
				}
				sum := sha256.Sum256(doc.Encode())
				if got := hex.EncodeToString(sum[:]); got != digests[key] {
					t.Fatalf("%s workers=%d: digest %s, perfbench/digests.txt has %q", key, w, got, digests[key])
				}
			}
		}
	}
}

// Encode's hand-written appender against the reflection encoder that
// defined the format, on real documents of every kind and fault model.
func TestEncodeMatchesReferenceOnCircuits(t *testing.T) {
	reqs := []AnalysisRequest{
		{Kind: WorstCaseAnalysis},
		{Kind: AverageAnalysis, NMax: 2, K: 20, Seed: 3},
		{Kind: AverageAnalysis, NMax: 2, K: 5, Seed: 3, Definition: 2},
		{Kind: PartitionedAnalysis, MaxInputs: 8},
		{Kind: WorstCaseAnalysis, FaultModel: "msa2"},
		{Kind: WorstCaseAnalysis, FaultModel: "transition"},
	}
	for _, name := range []string{"c17", "s27", "bbtas", "lion", "bbara"} {
		c, err := circuit.EmbeddedBench(name)
		if err != nil {
			bb, ok := bench.ByName(name)
			if !ok {
				t.Fatalf("no circuit %s", name)
			}
			r, err := bb.SynthesizeDefault()
			if err != nil {
				t.Fatal(err)
			}
			c = r.Circuit
		}
		for _, req := range reqs {
			req.Workers = 2
			doc, err := AnalyzeCircuit(c, req)
			if err != nil {
				t.Fatalf("%s %s %s: %v", name, req.Kind, req.FaultModel, err)
			}
			want, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if got := doc.Encode(); !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("%s %s %s: Encode differs from MarshalIndent:\ngot:\n%s\nwant:\n%s",
					name, req.Kind, req.FaultModel, got, want)
			}
		}
	}
}

// Hash-equal circuits produce byte-identical documents: the driver
// canonicalizes before analyzing, so source statement order cannot leak
// into fault enumeration order or Procedure 1's sampling. This is the
// serving layer's cache contract — a reordered resubmission served from
// cache must match what a fresh CLI run on the reordered source prints.
func TestAnalyzeCircuitInvariantUnderStatementReordering(t *testing.T) {
	const reordered = `
23 = NAND(16, 19)
22 = NAND(10, 16)
OUTPUT(22)
OUTPUT(23)
19 = NAND(11, 7)
16 = NAND(2, 11)
11 = NAND(3, 6)
10 = NAND(1, 3)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
`
	shuffled, err := circuit.ParseBenchString("c17", reordered)
	if err != nil {
		t.Fatal(err)
	}
	// The average case is the sharp edge: Procedure 1's seeded sampling
	// iterates targets in node-ID order, so without canonicalization the
	// p-values themselves (not just row order) would diverge.
	req := AnalysisRequest{Kind: AverageAnalysis, NMax: 2, K: 40, Seed: 7}
	a, err := AnalyzeCircuit(mustEmbedded(t, "c17"), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AnalyzeCircuit(shuffled, req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Circuit.Hash != b.Circuit.Hash {
		t.Fatal("reorderings should hash equal")
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatalf("statement reordering changed the document:\n%s\n---\n%s", a.Encode(), b.Encode())
	}
}

// The CLI's -seed default (1) and the server's normalized default must be
// the same analysis, or default CLI and daemon outputs would never diff
// clean.
func TestAnalyzeCircuitSeedDefaultMatchesCLI(t *testing.T) {
	var defaulted AnalysisRequest = AnalysisRequest{Kind: AverageAnalysis}
	if err := defaulted.Normalize(); err != nil {
		t.Fatal(err)
	}
	if defaulted.Seed != 1 {
		t.Fatalf("normalized default seed = %d, want 1 (cmd/ndetect's -seed default)", defaulted.Seed)
	}
}

func TestAnalyzeCircuitAverageSections(t *testing.T) {
	doc, err := AnalyzeCircuit(mustEmbedded(t, "c17"), AnalysisRequest{
		Kind: AverageAnalysis, NMax: 2, K: 40, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if doc.WorstCase == nil || doc.Average == nil || doc.Partitioned != nil {
		t.Fatalf("average kind should fill worst_case + average_case only: %+v", doc)
	}
	// c17 has 7 faults with nmin ≥ 3 (pinned by the worst-case suite), so
	// the Procedure 1 subset is non-empty and every p is in [0, 1].
	if doc.Average.Faults == 0 || len(doc.Average.P) != doc.Average.Faults {
		t.Fatalf("expected a non-empty analysed subset: %+v", doc.Average)
	}
	for _, p := range doc.Average.P {
		if p.P < 0 || p.P > 1 {
			t.Fatalf("p out of range: %+v", p)
		}
	}
	if doc.Options.NMax != 2 || doc.Options.K != 40 || doc.Options.Definition != 1 {
		t.Fatalf("identity options not recorded: %+v", doc.Options)
	}
	if doc.Circuit.Hash != circuit.Hash(mustEmbedded(t, "c17")) {
		t.Fatal("circuit hash missing or wrong")
	}
}

func TestAnalyzeCircuitWorstCaseMatchesCore(t *testing.T) {
	doc, err := AnalyzeCircuit(mustEmbedded(t, "c17"), AnalysisRequest{Kind: WorstCaseAnalysis})
	if err != nil {
		t.Fatal(err)
	}
	wc := doc.WorstCase
	if wc.Untargeted != 26 || len(wc.NMin) != 26 || wc.MaxFinite != 6 {
		t.Fatalf("c17 worst case drifted: untargeted=%d maxfinite=%d", wc.Untargeted, wc.MaxFinite)
	}
	// Identity options of a worst-case run are all defaults — the encoded
	// options object must be empty so equivalent requests cache-key equal.
	if doc.Options != (report.Options{}) {
		t.Fatalf("worstcase options should normalize to zero: %+v", doc.Options)
	}
}

func TestAnalyzeCircuitPartitioned(t *testing.T) {
	c := mustEmbedded(t, "w64")
	doc, err := AnalyzeCircuit(c, AnalysisRequest{Kind: PartitionedAnalysis, MaxInputs: 16, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := doc.Partitioned
	if p == nil || doc.WorstCase != nil || doc.Average != nil {
		t.Fatalf("partitioned kind should fill partitioned only: %+v", doc)
	}
	if len(p.Parts) < 2 || p.MergedFaults == 0 || len(p.Merged) != p.MergedFaults {
		t.Fatalf("partitioned result malformed: parts=%d merged=%d", len(p.Parts), p.MergedFaults)
	}
	if doc.Options.MaxInputs != 16 {
		t.Fatalf("max_inputs not recorded: %+v", doc.Options)
	}
}

func TestAnalyzeCircuitProgress(t *testing.T) {
	var mu sync.Mutex
	stages := map[string]bool{}
	_, err := AnalyzeCircuit(mustEmbedded(t, "c17"), AnalysisRequest{
		Kind: AverageAnalysis, NMax: 2, K: 10, Workers: 4,
		Progress: func(stage string, done, total int) {
			mu.Lock()
			stages[stage] = true
			mu.Unlock()
			if done < 0 || done > total {
				t.Errorf("bad progress %s %d/%d", stage, done, total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"simulate", "stuck-at-tsets", "bridge-tsets", "worstcase", "procedure1"} {
		if !stages[want] {
			t.Errorf("progress stage %q never reported (got %v)", want, stages)
		}
	}
}

func TestAnalyzeCircuitUnknownKind(t *testing.T) {
	if _, err := AnalyzeCircuit(mustEmbedded(t, "c17"), AnalysisRequest{Kind: "bogus"}); err == nil {
		t.Fatal("unknown kind should error")
	}
	if _, err := AnalyzeCircuit(mustEmbedded(t, "c17"), AnalysisRequest{
		Kind: AverageAnalysis, Definition: 3,
	}); err == nil {
		t.Fatal("unknown definition should error")
	}
}
