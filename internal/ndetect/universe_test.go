package ndetect

import (
	"testing"

	"ndetect/internal/bitset"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
	"ndetect/internal/sim"
)

func exampleCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("uni")
	b.Input("i1")
	b.Input("i2")
	b.Input("i3")
	b.Input("i4")
	b.Gate(circuit.And, "g9", "i1", "i2")
	b.Gate(circuit.And, "g10", "i3", "i4")
	b.Gate(circuit.Or, "g11", "g9", "g10")
	b.Output("g11")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c
}

func TestFromCircuit(t *testing.T) {
	c := exampleCircuit(t)
	u, err := BuildUniverse(c, fault.Default(), AnalyzeOptions{})
	if err != nil {
		t.Fatalf("BuildUniverse: %v", err)
	}
	if u.Size != 16 {
		t.Fatalf("Size = %d", u.Size)
	}
	if len(u.Targets) != len(u.StuckAt()) || len(u.Untargeted) != len(u.Bridges()) {
		t.Fatal("parallel slices out of sync")
	}
	if err := u.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Bridging faults exist between g9 and g10 (the only non-feedback
	// multi-input pair: g11 depends on both).
	if len(u.Untargeted) == 0 {
		t.Fatal("no untargeted faults")
	}
	for _, g := range u.Untargeted {
		if g.Set().IsEmpty() {
			t.Fatalf("undetectable bridge %s kept in G", g.Name)
		}
	}
	// Cross-check every target T-set against the naive simulator.
	for i, f := range u.StuckAt() {
		want := sim.NaiveStuckAtTSet(c, f)
		if !u.Targets[i].T.Equal(want) {
			t.Fatalf("T(%s) mismatch", u.Targets[i].Name)
		}
	}
	for i, g := range u.Bridges() {
		want := sim.NaiveBridgeTSet(c, g)
		if !u.Untargeted[i].Set().Equal(want) {
			t.Fatalf("T(%s) mismatch", u.Untargeted[i].Name)
		}
	}
}

func TestFromCircuitBridgeUniverseShape(t *testing.T) {
	c := exampleCircuit(t)
	u, err := BuildUniverse(c, fault.Default(), AnalyzeOptions{})
	if err != nil {
		t.Fatalf("BuildUniverse: %v", err)
	}
	// Candidate bridges: pair (g9,g10) → 4 faults; detectable subset only.
	if len(fault.Bridges(c)) != 4 {
		t.Fatalf("candidates = %d, want 4", len(fault.Bridges(c)))
	}
	if len(u.Untargeted) > 4 {
		t.Fatalf("detectable = %d > 4", len(u.Untargeted))
	}
	// g9=(i1∧i2), g10=(i3∧i4), g11 = OR. Dominance bridge g9→g10 value 0:
	// activated when g9=0 ∧ g10=1, flips g10 1→0; propagates iff g9=0 →
	// always at activation. T = {v: ¬(i1∧i2) ∧ (i3∧i4)} = {0011,0111,1011}
	// = {3,7,11}. Check it is present.
	found := false
	for i, g := range u.Bridges() {
		if g.Value == false && c.Node(g.Dominant).Name == "g9" && c.Node(g.Victim).Name == "g10" {
			found = true
			want := bitset.FromMembers(16, 3, 7, 11)
			if !u.Untargeted[i].Set().Equal(want) {
				t.Fatalf("T((g9,0,g10,1)) = %s, want %s", u.Untargeted[i].Set(), want)
			}
		}
	}
	if !found {
		t.Fatal("bridge (g9,0,g10,1) missing from detectable universe")
	}
}

func TestValidateCatchesMismatch(t *testing.T) {
	u := &Universe{
		Size:    8,
		Targets: []Fault{{Name: "f", T: bitset.New(16)}},
	}
	if err := u.Validate(); err == nil {
		t.Fatal("Validate accepted wrong universe size")
	}
	u2 := &Universe{
		Size:       8,
		Untargeted: []Fault{{Name: "g", T: nil}},
	}
	if err := u2.Validate(); err == nil {
		t.Fatal("Validate accepted nil T-set")
	}
}

func TestDetectableTargets(t *testing.T) {
	u := &Universe{
		Size: 8,
		Targets: []Fault{
			{Name: "a", T: bitset.FromMembers(8, 1)},
			{Name: "b", T: bitset.New(8)},
		},
	}
	if got := u.DetectableTargets(); got != 1 {
		t.Fatalf("DetectableTargets = %d", got)
	}
}

func TestFromCircuitEndToEndWorstCase(t *testing.T) {
	// Full pipeline sanity: worst-case analysis on the example circuit.
	c := exampleCircuit(t)
	u, err := BuildUniverse(c, fault.Default(), AnalyzeOptions{})
	if err != nil {
		t.Fatalf("BuildUniverse: %v", err)
	}
	wc := WorstCaseWorkers(&u.Universe, 0)
	for j, nm := range wc.NMin {
		if nm < 1 {
			t.Fatalf("nmin(%s) = %d < 1", u.Untargeted[j].Name, nm)
		}
	}
	// Every detectable bridge with a finite bound: verify the guarantee on
	// one constructed n-detection test set.
	res, err := Procedure1(&u.Universe, Procedure1Options{NMax: wcCap(wc.MaxFinite(), 12), K: 10, Seed: 4, KeepTestSets: true})
	if err != nil {
		t.Fatalf("Procedure1: %v", err)
	}
	for j, g := range u.Untargeted {
		nm := wc.NMin[j]
		if nm == Unbounded || nm > res.NMax {
			continue
		}
		for _, tk := range res.TestSets[nm-1] {
			if !tk.Detects(g) {
				t.Fatalf("guarantee violated for %s at n=%d", g.Name, nm)
			}
		}
	}
}

func wcCap(v, cap int) int {
	if v > cap {
		return cap
	}
	if v < 1 {
		return 1
	}
	return v
}

func TestTestSetBasics(t *testing.T) {
	ts := NewTestSet(16)
	if !ts.Add(5) || ts.Add(5) {
		t.Fatal("Add duplicate handling wrong")
	}
	ts.Add(9)
	if ts.Len() != 2 || !ts.Contains(5) || ts.Contains(6) {
		t.Fatal("membership wrong")
	}
	f := Fault{Name: "f", T: bitset.FromMembers(16, 5, 6, 9)}
	if ts.Detections(f) != 2 || !ts.Detects(f) {
		t.Fatal("Detections wrong")
	}
	cl := ts.Clone()
	cl.Add(1)
	if ts.Contains(1) {
		t.Fatal("Clone not independent")
	}
	v := ts.Vectors()
	if len(v) != 2 || v[0] != 5 || v[1] != 9 {
		t.Fatalf("Vectors = %v", v)
	}
}

func TestIsNDetection(t *testing.T) {
	size := 16
	targets := []Fault{
		{Name: "f1", T: bitset.FromMembers(size, 1, 2, 3)},
		{Name: "f2", T: bitset.FromMembers(size, 4)},
	}
	ts := NewTestSet(size)
	ts.Add(1)
	ts.Add(2)
	ts.Add(4)
	// f1 detected twice, f2 once but exhausted → 2-detection holds.
	if !ts.IsNDetection(2, targets) {
		t.Fatal("2-detection should hold (f2 exhausted)")
	}
	if !ts.IsNDetection(1, targets) {
		t.Fatal("1-detection should hold")
	}
	if ts.IsNDetection(3, targets) {
		t.Fatal("3-detection should fail: f1 has a third unused test")
	}
}
