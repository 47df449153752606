package fault

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ndetect/internal/circuit"
)

// modelCircuit is a small multi-gate circuit with fanout, used by the
// registry tests: enough structure that every provider enumerates a
// non-trivial set.
func modelCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	return build(t, func(b *circuit.Builder) {
		b.Input("a")
		b.Input("c")
		b.Input("d")
		b.Gate(circuit.And, "g1", "a", "c")
		b.Gate(circuit.Nand, "g2", "c", "d")
		b.Gate(circuit.Or, "g3", "g1", "g2")
		b.Output("g3")
	})
}

func TestRegistryModels(t *testing.T) {
	want := []string{"msa2", "stuckat+bridge4", "transition"}
	if got := ModelIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ModelIDs = %v, want %v (sorted)", got, want)
	}

	if Default().ID() != DefaultModelID {
		t.Fatalf("Default().ID() = %q, want %q", Default().ID(), DefaultModelID)
	}
	m, err := Resolve("")
	if err != nil || m.ID() != DefaultModelID {
		t.Fatalf(`Resolve("") = %v, %v; want the default model`, m, err)
	}
	if m, err := Resolve(DefaultModelID); err != nil || m.ID() != DefaultModelID {
		t.Fatalf("Resolve(default) = %v, %v", m, err)
	}
	if _, err := Resolve("no-such-model"); err == nil {
		t.Fatal("Resolve of an unknown ID succeeded")
	} else if !strings.Contains(err.Error(), "no-such-model") {
		t.Fatalf("unknown-model error %q does not name the ID", err)
	}

	// The shape contract each analysis layer relies on: Definition 2 needs
	// stuck-at targets over single vectors, which transition's pair space
	// cannot provide.
	for _, tc := range []struct {
		id    string
		space Space
		def2  bool
	}{
		{DefaultModelID, SingleVector, true},
		{"transition", VectorPair, false},
		{"msa2", SingleVector, true},
	} {
		m, err := Resolve(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		if m.Space() != tc.space || m.Def2Capable() != tc.def2 {
			t.Errorf("%s: Space=%v Def2Capable=%v, want %v/%v",
				tc.id, m.Space(), m.Def2Capable(), tc.space, tc.def2)
		}
	}
}

// Enumeration must be a pure function of the circuit: two builds of the
// same source yield element-wise identical descriptor lists for every
// model and set, because enumeration order joins result identities.
func TestEnumerationDeterministic(t *testing.T) {
	a, b := modelCircuit(t), modelCircuit(t)
	for _, id := range ModelIDs() {
		m, err := Resolve(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range []Set{TargetSet, UntargetedSet} {
			da := EnumerateSet(m, a, set)
			db := EnumerateSet(m, b, set)
			if !reflect.DeepEqual(da, db) {
				t.Errorf("%s set %d: enumeration differs across identical builds", id, set)
			}
			if len(da) == 0 {
				t.Errorf("%s set %d: empty enumeration on a multi-gate circuit", id, set)
			}
		}
	}
}

// Every enumerated descriptor must pass its own provider's validation —
// the store codec round-trips through exactly this check.
func TestEnumeratedDescriptorsValidate(t *testing.T) {
	c := modelCircuit(t)
	for _, id := range ModelIDs() {
		m, err := Resolve(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range []Set{TargetSet, UntargetedSet} {
			p := m.Provider(set)
			for _, d := range p.Enumerate(c) {
				if err := p.Validate(c, d); err != nil {
					t.Errorf("%s: enumerated descriptor %+v fails validation: %v", id, d, err)
				}
				if len(p.AppendName(nil, c, d)) == 0 {
					t.Errorf("%s: descriptor %+v has an empty name", id, d)
				}
			}
		}
	}
}

func TestProviderNames(t *testing.T) {
	c := modelCircuit(t)
	g1, _ := c.NodeByName("g1")
	g2, _ := c.NodeByName("g2")

	tp := TransitionProvider{}
	if got := string(tp.AppendName(nil, c, Descriptor{A: int32(g1.ID), B: -1, V: 0})); got != "g1/str" {
		t.Errorf("slow-to-rise name = %q, want g1/str", got)
	}
	if got := string(tp.AppendName(nil, c, Descriptor{A: int32(g1.ID), B: -1, V: 1})); got != "g1/stf" {
		t.Errorf("slow-to-fall name = %q, want g1/stf", got)
	}

	pp := PairStuckAtProvider{}
	a, b := int32(g1.ID), int32(g2.ID)
	if a > b {
		a, b = b, a
	}
	got := string(pp.AppendName(nil, c, Descriptor{A: a, B: b, V: 0b10}))
	want := fmt.Sprintf("{%s/0,%s/1}", c.Node(int(a)).Name, c.Node(int(b)).Name)
	if got != want {
		t.Errorf("pair name = %q, want %q", got, want)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	c := modelCircuit(t)
	n := int32(c.NumNodes())
	cases := []struct {
		p SetProvider
		d Descriptor
	}{
		{StuckAtProvider{}, Descriptor{A: n, B: -1, V: 0}},    // node out of range
		{StuckAtProvider{}, Descriptor{A: 0, B: 1, V: 0}},     // B must be -1
		{StuckAtProvider{}, Descriptor{A: 0, B: -1, V: 2}},    // V out of range
		{BridgeProvider{}, Descriptor{A: 0, B: 0, V: 0}},      // self-bridge
		{BridgeProvider{}, Descriptor{A: 0, B: n, V: 0}},      // victim out of range
		{TransitionProvider{}, Descriptor{A: -1, B: -1}},      // node out of range
		{TransitionProvider{}, Descriptor{A: 0, B: 2, V: 0}},  // B must be -1
		{PairStuckAtProvider{}, Descriptor{A: 2, B: 1, V: 0}}, // A >= B
		{PairStuckAtProvider{}, Descriptor{A: 0, B: 1, V: 4}}, // V out of range
	}
	for _, tc := range cases {
		if err := tc.p.Validate(c, tc.d); err == nil {
			t.Errorf("%T accepted malformed descriptor %+v", tc.p, tc.d)
		}
	}
}

func TestSpaceSize(t *testing.T) {
	c := modelCircuit(t) // 3 inputs, |U| = 8
	if got, err := SpaceSize(Default(), c); err != nil || got != 8 {
		t.Fatalf("SpaceSize(default) = %d, %v; want 8", got, err)
	}
	tr, err := Resolve("transition")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := SpaceSize(tr, c); err != nil || got != 64 {
		t.Fatalf("SpaceSize(transition) = %d, %v; want |U|² = 64", got, err)
	}

	// 32 inputs: |U| = 2³² fits an int, |U|² = 2⁶⁴ does not — the pair
	// space must refuse rather than wrap.
	wide := build(t, func(b *circuit.Builder) {
		names := make([]string, 32)
		for i := range names {
			names[i] = fmt.Sprintf("x%d", i)
			b.Input(names[i])
		}
		b.Gate(circuit.Or, "g", names...)
		b.Output("g")
	})
	if _, err := SpaceSize(tr, wide); err == nil {
		t.Fatal("SpaceSize(transition) over 32 inputs did not report overflow")
	}
}
