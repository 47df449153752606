package ndetect

import (
	"slices"
	"strings"
	"testing"
)

func TestFacadeBuilderFlow(t *testing.T) {
	b := NewBuilder("f")
	b.Input("a")
	b.Input("c")
	b.Input("d")
	b.Gate(And, "g1", "a", "c")
	b.Gate(And, "g2", "c", "d")
	b.Gate(Or, "g3", "g1", "g2")
	b.Output("g3")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	u, err := Analyze(c, "", AnalyzeOptions{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(u.Targets) == 0 || len(u.Untargeted) == 0 {
		t.Fatal("empty universes")
	}
	wc := WorstCase(&u.Universe)
	if len(wc.NMin) != len(u.Untargeted) {
		t.Fatal("result length mismatch")
	}
	res, err := Procedure1(&u.Universe, Procedure1Options{NMax: 3, K: 50, Seed: 1})
	if err != nil {
		t.Fatalf("Procedure1: %v", err)
	}
	// Worst-case/average-case consistency: a fault guaranteed at n must be
	// detected by all K test sets at that n.
	for j := range u.Untargeted {
		for n := 1; n <= 3; n++ {
			if wc.NMin[j] <= n && res.Detected[n-1][j] != res.K {
				t.Fatalf("fault %d guaranteed at n=%d but d=%d < K", j, n, res.Detected[n-1][j])
			}
		}
	}
}

// TestFacadeAnalyzeModelAndOptions drives the one Analyze with a model, a
// worker budget and a progress hook: "" is the default model, the hook
// sees every construction stage, the universe does not depend on the
// worker count, and an unknown model fails by name.
func TestFacadeAnalyzeModelAndOptions(t *testing.T) {
	c, err := EmbeddedBenchCircuit("c17")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range append([]string{""}, FaultModels()...) {
		var stages []string
		hook := func(stage string, done, total int) { stages = append(stages, stage) }
		u, err := Analyze(c, model, AnalyzeOptions{Workers: 1, Progress: hook})
		if err != nil {
			t.Fatalf("Analyze(%q): %v", model, err)
		}
		want := model
		if want == "" {
			want = DefaultFaultModel
		}
		if u.Model.ID() != want {
			t.Fatalf("Analyze(%q) built model %s", model, u.Model.ID())
		}
		if len(stages) != 4 || stages[0] != "simulate" || stages[3] != "universe" {
			t.Fatalf("Analyze(%q) progress stages %v", model, stages)
		}
		par, err := Analyze(c, model, AnalyzeOptions{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(WorstCase(&u.Universe).NMin, WorstCase(&par.Universe).NMin) {
			t.Fatalf("Analyze(%q): worst case differs between 1 and 3 workers", model)
		}
	}
	if _, err := Analyze(c, "nope", AnalyzeOptions{}); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("Analyze accepted an unknown model: %v", err)
	}
}

func TestFacadeParseNetlist(t *testing.T) {
	c, err := ParseNetlist(`
circuit t
input a b
output g
gate and g a b
`)
	if err != nil {
		t.Fatalf("ParseNetlist: %v", err)
	}
	if c.NumGates() != 1 {
		t.Fatal("wrong gate count")
	}
	if _, err := ParseNetlist("garbage"); err == nil {
		t.Fatal("ParseNetlist accepted garbage")
	}
}

func TestFacadeKISS2Synthesis(t *testing.T) {
	m, err := ParseKISS2("toy", `
.i 1
.o 1
.r a
0 a a 0
1 a b 1
- b a 1
.e
`)
	if err != nil {
		t.Fatalf("ParseKISS2: %v", err)
	}
	r, err := Synthesize(m, DefaultSynthOptions())
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if r.Circuit.NumInputs() != 2 { // 1 PI + 1 state bit
		t.Fatalf("inputs = %d, want 2", r.Circuit.NumInputs())
	}
}

func TestLoadBenchmark(t *testing.T) {
	u, err := LoadBenchmark("lion")
	if err != nil {
		t.Fatalf("LoadBenchmark: %v", err)
	}
	if u.Size != 16 {
		t.Fatalf("lion |U| = %d, want 16", u.Size)
	}
	if _, err := LoadBenchmark("nope"); err == nil {
		t.Fatal("LoadBenchmark accepted unknown name")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unhelpful error %q", err)
	}
}

func TestBenchmarksRegistry(t *testing.T) {
	all := Benchmarks()
	if len(all) != 35 {
		t.Fatalf("Benchmarks() = %d circuits, want 35", len(all))
	}
	b, ok := BenchmarkByName("dvram")
	if !ok || b.Inputs != 7 {
		t.Fatal("BenchmarkByName(dvram) wrong")
	}
}

func TestNMinPairFacade(t *testing.T) {
	u, err := LoadBenchmark("train4")
	if err != nil {
		t.Fatalf("LoadBenchmark: %v", err)
	}
	g := u.Untargeted[0]
	direct := NMin(g, u.Targets)
	best := Unbounded
	for _, f := range u.Targets {
		if v := NMinPair(g, f); v < best {
			best = v
		}
	}
	if direct != best {
		t.Fatalf("NMin %d != min over NMinPair %d", direct, best)
	}
	contribs := ContributingFaults(g, u.Targets)
	cbest := Unbounded
	for _, pc := range contribs {
		if pc.NMin < cbest {
			cbest = pc.NMin
		}
	}
	if len(contribs) > 0 && cbest != direct {
		t.Fatalf("ContributingFaults min %d != NMin %d", cbest, direct)
	}
}

func TestFacadeDef2EndToEnd(t *testing.T) {
	u, err := LoadBenchmark("lion9")
	if err != nil {
		t.Fatalf("LoadBenchmark: %v", err)
	}
	opts := Procedure1Options{NMax: 3, K: 30, Seed: 2, Checker: NewDef2Checker(u)}
	res, err := Procedure1(&u.Universe, opts)
	if err != nil {
		t.Fatalf("Procedure1(Def2): %v", err)
	}
	if res.K != 30 {
		t.Fatal("result K wrong")
	}
}

func TestFacadePartition(t *testing.T) {
	b := NewBuilder("w")
	for _, n := range []string{"a", "c", "d", "e"} {
		b.Input(n)
	}
	b.Gate(And, "g1", "a", "c")
	b.Gate(And, "g2", "d", "e")
	b.Output("g1")
	b.Output("g2")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	parts, err := SplitCircuit(c, PartitionOptions{MaxInputs: 2})
	if err != nil {
		t.Fatalf("SplitCircuit: %v", err)
	}
	if len(parts) != 2 {
		t.Fatalf("parts = %d, want 2", len(parts))
	}
	merged := MergePartNMin([]map[string]int{{"x": 3}, {"x": 1, "y": 2}})
	if merged["x"] != 1 || merged["y"] != 2 {
		t.Fatalf("MergePartNMin = %v", merged)
	}
}

func TestFacadeBenchFormat(t *testing.T) {
	c, err := ParseBench("half", `
		INPUT(a)
		INPUT(b)
		OUTPUT(s)
		OUTPUT(co)
		s = XOR(a, b)
		co = AND(a, b)
	`)
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	if c.NumInputs() != 2 || c.NumOutputs() != 2 {
		t.Fatalf("half adder interface = %d/%d", c.NumInputs(), c.NumOutputs())
	}
	names := EmbeddedBenchNames()
	if len(names) == 0 {
		t.Fatal("no embedded bench samples")
	}
	if _, err := EmbeddedBenchCircuit("c17"); err != nil {
		t.Fatalf("EmbeddedBenchCircuit(c17): %v", err)
	}
}

// TestFacadeAnalyzePartitioned runs the end-to-end large-circuit pipeline
// through the public API: a >60-input .bench sample that Analyze must
// reject, analysed part by part instead.
func TestFacadeAnalyzePartitioned(t *testing.T) {
	c, err := EmbeddedBenchCircuit("w64")
	if err != nil {
		t.Fatalf("EmbeddedBenchCircuit(w64): %v", err)
	}
	if _, err := Analyze(c, "", AnalyzeOptions{}); err == nil {
		t.Fatal("Analyze accepted a 64-input circuit; MaxInputs guard gone")
	}
	res, err := AnalyzePartitioned(c, PartitionOptions{MaxInputs: 16}, 0)
	if err != nil {
		t.Fatalf("AnalyzePartitioned: %v", err)
	}
	if len(res.Parts) < 2 || len(res.Merged) == 0 {
		t.Fatalf("partitioned result too small: %d parts, %d merged faults", len(res.Parts), len(res.Merged))
	}
}

func TestTestSetFacade(t *testing.T) {
	ts := NewTestSet(8)
	ts.Add(1)
	ts.Add(5)
	if ts.Len() != 2 {
		t.Fatal("TestSet facade broken")
	}
}
