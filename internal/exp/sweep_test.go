package exp

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/ndetect"
	"ndetect/internal/report"
)

// recordingSource records how universe resolutions overlap: the most
// that ran at once, the worker budget each got, and the builds per model.
type recordingSource struct {
	mu      sync.Mutex
	active  int
	peak    int
	workers []int
	builds  map[string]int
}

func (s *recordingSource) Universe(c *circuit.Circuit, m fault.Model, opts ndetect.AnalyzeOptions) (*ndetect.CircuitUniverse, error) {
	s.mu.Lock()
	s.active++
	s.peak = max(s.peak, s.active)
	s.workers = append(s.workers, opts.Workers)
	s.builds[m.ID()]++
	s.mu.Unlock()
	// Hold the resolution open long enough for an overlapping one to
	// register in peak.
	time.Sleep(20 * time.Millisecond)
	u, err := ndetect.BuildUniverse(c, m, opts)
	s.mu.Lock()
	s.active--
	s.mu.Unlock()
	return u, err
}

func sweepVariants() []AnalysisRequest {
	return []AnalysisRequest{
		{Kind: WorstCaseAnalysis},
		{Kind: AverageAnalysis, NMax: 2, K: 30, Seed: 1},
		{Kind: AverageAnalysis, NMax: 2, K: 30, Seed: 2},
		{Kind: AverageAnalysis, NMax: 2, K: 30, Seed: 1, Definition: 2, Ge11Limit: 3},
		{Kind: AverageAnalysis, NMax: 3, K: 15, Seed: 5},
	}
}

// The acceptance contract: a sweep of S variants over one circuit runs
// universe construction exactly once, and every variant's document is
// byte-identical to its cold one-shot run.
func TestSweepSharesUniverseAndMatchesColdRuns(t *testing.T) {
	for _, workers := range []int{1, 8} {
		src := &recordingSource{builds: map[string]int{}}
		docs, err := Sweep(mustEmbedded(t, "c17"), sweepVariants(), SweepOptions{
			Workers:   workers,
			Universes: src,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := src.builds[fault.DefaultModelID]; got != 1 || len(src.builds) != 1 {
			t.Fatalf("workers=%d: universe builds per model %v for %d variants, want exactly 1",
				workers, src.builds, len(sweepVariants()))
		}
		if len(docs) != len(sweepVariants()) {
			t.Fatalf("got %d documents, want %d", len(docs), len(sweepVariants()))
		}
		for i, v := range sweepVariants() {
			cold, err := AnalyzeCircuit(mustEmbedded(t, "c17"), v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(docs[i].Encode(), cold.Encode()) {
				t.Fatalf("workers=%d variant %d: swept document differs from cold run:\n%s\n---\n%s",
					workers, i, docs[i].Encode(), cold.Encode())
			}
		}
	}
}

// Without an explicit source the sweep builds the universe itself —
// still once — and still matches cold runs.
func TestSweepDefaultSource(t *testing.T) {
	variants := sweepVariants()[:3]
	docs, err := Sweep(mustEmbedded(t, "c17"), variants, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := AnalyzeCircuit(mustEmbedded(t, "c17"), variants[2])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(docs[2].Encode(), cold.Encode()) {
		t.Fatal("swept document differs from cold run")
	}
}

// A grid crossing fault models resolves one universe per model, one at a
// time, each with the sweep's whole worker budget, and still matches cold
// runs.
func TestSweepResolvesModelsOneAtATime(t *testing.T) {
	variants := []AnalysisRequest{
		{Kind: WorstCaseAnalysis},
		{Kind: WorstCaseAnalysis, FaultModel: "transition"},
		{Kind: AverageAnalysis, NMax: 2, K: 30, Seed: 1},
		{Kind: AverageAnalysis, NMax: 2, K: 30, Seed: 1, FaultModel: "transition"},
	}
	src := &recordingSource{builds: map[string]int{}}
	docs, err := Sweep(mustEmbedded(t, "c17"), variants, SweepOptions{Workers: 4, Universes: src})
	if err != nil {
		t.Fatal(err)
	}
	if src.peak != 1 {
		t.Fatalf("%d universe resolutions ran at once, want 1", src.peak)
	}
	for _, w := range src.workers {
		if w != 4 {
			t.Fatalf("resolution workers %v, want the whole budget 4 each", src.workers)
		}
	}
	if len(src.builds) != 2 || src.builds[fault.DefaultModelID] != 1 || src.builds["transition"] != 1 {
		t.Fatalf("builds per model %v, want one each for %s and transition", src.builds, fault.DefaultModelID)
	}
	for i, v := range variants {
		cold, err := AnalyzeCircuit(mustEmbedded(t, "c17"), v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(docs[i].Encode(), cold.Encode()) {
			t.Fatalf("variant %d: swept document differs from cold run", i)
		}
	}
}

// Every variant of one fault model carries the same worst-case section,
// so the documents of a sweep share one section per model rather than
// holding a copy each; the byte tests above pin what the shared section
// encodes to.
func TestSweepSharesWorstCaseSection(t *testing.T) {
	variants := append(sweepVariants(),
		AnalysisRequest{Kind: WorstCaseAnalysis, FaultModel: "transition"},
		AnalysisRequest{Kind: AverageAnalysis, NMax: 2, K: 30, Seed: 1, FaultModel: "transition"},
		AnalysisRequest{Kind: AverageAnalysis, NMax: 2, K: 30, Seed: 2, FaultModel: "transition"},
	)
	for _, workers := range []int{1, 4} {
		docs, err := Sweep(mustEmbedded(t, "c17"), variants, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		byModel := map[string]*report.WorstCase{}
		for i, v := range variants {
			wc := docs[i].WorstCase
			if wc == nil {
				t.Fatalf("workers=%d variant %d: no worst-case section", workers, i)
			}
			if first, ok := byModel[v.FaultModel]; !ok {
				byModel[v.FaultModel] = wc
			} else if wc != first {
				t.Fatalf("workers=%d variant %d: holds its own worst-case section, not its model's shared one", workers, i)
			}
		}
		if byModel[""] == byModel["transition"] {
			t.Fatalf("workers=%d: two fault models share one worst-case section", workers)
		}
	}
}

func TestSweepRejects(t *testing.T) {
	c := mustEmbedded(t, "c17")
	if _, err := Sweep(c, nil, SweepOptions{}); err == nil {
		t.Fatal("empty sweep should error")
	}
	if _, err := Sweep(c, []AnalysisRequest{{Kind: PartitionedAnalysis}}, SweepOptions{}); err == nil {
		t.Fatal("partitioned variants should be rejected")
	}
	if _, err := Sweep(c, []AnalysisRequest{{Kind: "bogus"}}, SweepOptions{}); err == nil {
		t.Fatal("unknown kind should be rejected")
	}
}

func TestParseSweepGrid(t *testing.T) {
	variants, err := ParseSweep("analysis=average;nmax=2;k=30;seed=1..3;def=1,2")
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 6 {
		t.Fatalf("3 seeds × 2 defs = %d variants, want 6", len(variants))
	}
	// Fixed enumeration order: seed outer, def fastest.
	want := []struct {
		seed int64
		def  int
	}{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {3, 1}, {3, 2}}
	for i, v := range variants {
		if v.Kind != AverageAnalysis || v.NMax != 2 || v.K != 30 ||
			v.Seed != want[i].seed || v.Definition != want[i].def {
			t.Fatalf("variant %d = %+v, want seed=%d def=%d", i, v, want[i].seed, want[i].def)
		}
	}
}

// A worst-case axis collapses: it has no numeric identity options, so
// crossing it with a seed list yields one worstcase variant, not three.
func TestParseSweepDeduplicates(t *testing.T) {
	variants, err := ParseSweep("analysis=worstcase,average;seed=1..3")
	if err != nil {
		t.Fatal(err)
	}
	wc := 0
	for _, v := range variants {
		if v.Kind == WorstCaseAnalysis {
			wc++
			if v.IdentityOptions() != (report.Options{}) {
				t.Fatalf("worstcase variant kept options: %+v", v)
			}
		}
	}
	if wc != 1 || len(variants) != 4 {
		t.Fatalf("got %d variants (%d worstcase), want 4 (1 worstcase + 3 seeds)", len(variants), wc)
	}
}

func TestParseSweepErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"bogus=1",
		"analysis=partitioned",
		"seed=",
		"seed=x",
		"seed=5..1",
		"seed=1;seed=2",
		"seed=1..100000",
		"def=3", // normalizes to an invalid definition
		// int64-span overflow: b-a wraps negative and must still reject.
		"seed=-9223372036854775808..9223372036854775807",
		// The raw product bounds enumeration work even when every grid
		// point de-duplicates to one worst-case variant.
		"analysis=worstcase;nmax=1..100;k=1..100",
		"nmax=1..100;k=1..100;seed=1..100",
	} {
		if _, err := ParseSweep(spec); err == nil {
			t.Fatalf("spec %q should error", spec)
		}
	}
	// Defaults: bare numeric keys imply the average analysis.
	variants, err := ParseSweep("seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 1 || variants[0].Kind != AverageAnalysis || variants[0].Seed != 9 ||
		variants[0].NMax != 10 || variants[0].K != 1000 {
		t.Fatalf("defaults not applied: %+v", variants)
	}

	// A range ending at MaxInt64 enumerates without wrapping (the naive
	// v++ loop would never terminate).
	variants, err = ParseSweep("seed=9223372036854775805..9223372036854775807")
	if err != nil {
		t.Fatal(err)
	}
	if len(variants) != 3 || variants[2].Seed != 9223372036854775807 {
		t.Fatalf("MaxInt64-endpoint range mis-enumerated: %d variants", len(variants))
	}
}
