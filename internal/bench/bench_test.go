package bench

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ndetect/internal/circuit"
	"ndetect/internal/synth"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestAllBenchmarksParse(t *testing.T) {
	for _, b := range All() {
		m, err := b.STG()
		if err != nil {
			t.Errorf("%s: STG: %v", b.Name, err)
			continue
		}
		if m.NumInputs != b.Inputs {
			t.Errorf("%s: inputs = %d, want %d", b.Name, m.NumInputs, b.Inputs)
		}
		if m.NumOutputs != b.Outputs {
			t.Errorf("%s: outputs = %d, want %d", b.Name, m.NumOutputs, b.Outputs)
		}
		if m.NumStates() != b.States {
			t.Errorf("%s: states = %d, want %d", b.Name, m.NumStates(), b.States)
		}
		if err := m.CheckDeterministic(); err != nil {
			t.Errorf("%s: nondeterministic: %v", b.Name, err)
		}
	}
}

func TestAllBenchmarksSynthesize(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, b := range All() {
		r, err := b.Synthesize(synth.Options{})
		if err != nil {
			t.Errorf("%s: Synthesize: %v", b.Name, err)
			continue
		}
		stats := r.Circuit.ComputeStats()
		if stats.MultiInputGates < 2 {
			t.Errorf("%s: only %d multi-input gates; bridging universe degenerate", b.Name, stats.MultiInputGates)
		}
		if got := b.TotalInputs(); got != r.TotalInputs() {
			t.Errorf("%s: TotalInputs %d vs synth %d", b.Name, got, r.TotalInputs())
		}
		if r.TotalInputs() > 14 {
			t.Errorf("%s: %d total inputs exceeds the expected benchmark scale", b.Name, r.TotalInputs())
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, err := generate("x", 42, genParams{Inputs: 4, Outputs: 3, States: 7, SplitProb: 2.5, DropProb: 0.2, OutputDashProb: 0.2})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	b, err := generate("x", 42, genParams{Inputs: 4, Outputs: 3, States: 7, SplitProb: 2.5, DropProb: 0.2, OutputDashProb: 0.2})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if len(a.Transitions) != len(b.Transitions) {
		t.Fatal("generator not deterministic")
	}
	for i := range a.Transitions {
		if a.Transitions[i] != b.Transitions[i] {
			t.Fatal("generator not deterministic")
		}
	}
	c, err := generate("x", 43, genParams{Inputs: 4, Outputs: 3, States: 7, SplitProb: 2.5, DropProb: 0.2, OutputDashProb: 0.2})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if len(a.Transitions) == len(c.Transitions) {
		same := true
		for i := range a.Transitions {
			if a.Transitions[i] != c.Transitions[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical machines")
		}
	}
}

func TestGeneratorRejectsBadParams(t *testing.T) {
	if _, err := generate("bad", 1, genParams{Inputs: 0, Outputs: 1, States: 2}); err == nil {
		t.Fatal("accepted zero inputs")
	}
	if _, err := generate("bad", 1, genParams{Inputs: 2, Outputs: 0, States: 2}); err == nil {
		t.Fatal("accepted zero outputs")
	}
}

func TestSplitCubesDisjointCover(t *testing.T) {
	// The generated cubes must partition the input space (disjoint, and
	// jointly covering), which is what makes every generated machine
	// deterministic by construction.
	for seed := int64(0); seed < 30; seed++ {
		rng := newRng(seed)
		cubes := splitCubes(rng, 5, 3.0)
		covered := make([]int, 32)
		for _, cube := range cubes {
			for v := 0; v < 32; v++ {
				if cubeMatchesStr(cube, v, 5) {
					covered[v]++
				}
			}
		}
		for v, c := range covered {
			if c != 1 {
				t.Fatalf("seed %d: vector %d covered %d times", seed, v, c)
			}
		}
	}
}

func cubeMatchesStr(cube string, v, n int) bool {
	for i := 0; i < n; i++ {
		bit := (v >> uint(n-1-i)) & 1
		if cube[i] == '0' && bit != 0 {
			return false
		}
		if cube[i] == '1' && bit != 1 {
			return false
		}
	}
	return true
}

func TestByName(t *testing.T) {
	b, ok := ByName("lion")
	if !ok || b.Name != "lion" {
		t.Fatal("ByName(lion) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName accepted unknown name")
	}
	if len(Names()) != len(All()) {
		t.Fatal("Names and All disagree")
	}
}

// CircuitByName is the one by-name fallback: an FSM surrogate's shared
// default synthesis, else the shared embedded .bench sample, else an error
// naming both sets.
func TestCircuitByName(t *testing.T) {
	b, _ := ByName("bbara")
	r, err := b.SynthesizeDefault()
	if err != nil {
		t.Fatal(err)
	}
	if c, err := CircuitByName("bbara"); err != nil || c != r.Circuit {
		t.Fatalf("CircuitByName(bbara) = %p, %v; want the shared synthesis %p", c, err, r.Circuit)
	}
	c17, err := circuit.EmbeddedBench("c17")
	if err != nil {
		t.Fatal(err)
	}
	if c, err := CircuitByName("c17"); err != nil || c != c17 {
		t.Fatalf("CircuitByName(c17) = %p, %v; want the shared sample %p", c, err, c17)
	}
	_, err = CircuitByName("nope")
	if err == nil || !strings.Contains(err.Error(), `"nope"`) || !strings.Contains(err.Error(), "lion") || !strings.Contains(err.Error(), "w64") {
		t.Fatalf("CircuitByName(nope) error %v does not list both name sets", err)
	}
}

func TestPaperDataConsistency(t *testing.T) {
	// Every circuit in the paper tables exists in the registry.
	for name := range PaperTable2 {
		if _, ok := ByName(name); !ok {
			t.Errorf("Table 2 circuit %s missing from registry", name)
		}
	}
	for name := range PaperTable3 {
		if _, ok := PaperTable2[name]; !ok {
			t.Errorf("Table 3 circuit %s missing from Table 2", name)
		}
	}
	for _, name := range Table5Circuits {
		r3, ok := PaperTable3[name]
		if !ok {
			t.Errorf("Table 5 circuit %s missing from Table 3", name)
			continue
		}
		r5, ok := PaperTable5[name]
		if !ok {
			t.Errorf("Table 5 circuit %s missing from PaperTable5", name)
			continue
		}
		if r5.Faults != r3.Ge11 {
			t.Errorf("%s: Table 5 fault count %d != Table 3 ≥11 count %d", name, r5.Faults, r3.Ge11)
		}
	}
	// Registry ordering covers all 35 circuits of Table 2.
	if len(PaperTable2) != 35 {
		t.Errorf("PaperTable2 has %d circuits, want 35", len(PaperTable2))
	}
	if len(All()) != 35 {
		t.Errorf("registry has %d circuits, want 35", len(All()))
	}
}

func TestHandwrittenComplete(t *testing.T) {
	// Handwritten machines should mostly specify their transition tables;
	// spot-check that tav and s8 are complete.
	for _, name := range []string{"tav", "s8", "mc"} {
		b, _ := ByName(name)
		m, err := b.STG()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if un := m.CheckComplete(); un != 0 {
			t.Errorf("%s: %d unspecified (state,vector) pairs", name, un)
		}
	}
}

// Every caller of SynthesizeDefault, concurrent ones included, shares one
// result per benchmark, and it is the circuit an unmemoized synthesis with
// DefaultOptions builds.
func TestSynthesizeDefaultShared(t *testing.T) {
	for _, b := range All() {
		const callers = 8
		got := make([]*synth.Result, callers)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r, err := b.SynthesizeDefault()
				if err != nil {
					t.Errorf("%s: %v", b.Name, err)
				}
				got[i] = r
			}(i)
		}
		wg.Wait()
		again, _ := b.SynthesizeDefault()
		for i, r := range append(got, again) {
			if r != got[0] {
				t.Fatalf("%s: call %d returned another result", b.Name, i)
			}
		}

		fresh, err := b.Synthesize(DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if fresh == got[0] {
			t.Fatalf("%s: Synthesize returned the memoized result", b.Name)
		}
		if got[0].Circuit.WriteString() != fresh.Circuit.WriteString() {
			t.Errorf("%s: memoized netlist differs from a fresh synthesis", b.Name)
		}
		if circuit.Hash(got[0].Circuit) != circuit.Hash(fresh.Circuit) {
			t.Errorf("%s: memoized hash differs from a fresh synthesis", b.Name)
		}
	}
}
