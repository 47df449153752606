package fault

import (
	"fmt"
	"testing"

	"ndetect/internal/bench"
	"ndetect/internal/circuit"
)

func build(t *testing.T, fn func(b *circuit.Builder)) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("t")
	fn(b)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c
}

func TestAllStuckAtCount(t *testing.T) {
	c := build(t, func(b *circuit.Builder) {
		b.Input("a")
		b.Input("c")
		b.Gate(circuit.And, "g", "a", "c")
		b.Output("g")
	})
	// Nodes: a, c, g — no fanout, no branches → 6 faults.
	fs := AllStuckAt(c)
	if len(fs) != 6 {
		t.Fatalf("AllStuckAt = %d faults, want 6", len(fs))
	}
}

func TestAllStuckAtExcludesConsts(t *testing.T) {
	c := build(t, func(b *circuit.Builder) {
		b.Input("a")
		b.Const("k", false)
		b.Gate(circuit.Or, "g", "a", "k")
		b.Output("g")
	})
	for _, f := range AllStuckAt(c) {
		k := c.Node(f.Node).Kind
		if k == circuit.Const0 || k == circuit.Const1 {
			t.Fatalf("constant node in fault list")
		}
	}
}

func TestCollapseAndGate(t *testing.T) {
	c := build(t, func(b *circuit.Builder) {
		b.Input("a")
		b.Input("c")
		b.Gate(circuit.And, "g", "a", "c")
		b.Output("g")
	})
	col := CollapseStuckAt(c)
	// Classes: {a/0, c/0, g/0}, {a/1}, {c/1}, {g/1} → 4 representatives.
	if len(col) != 4 {
		t.Fatalf("collapsed = %d faults, want 4: %v", len(col), names(c, col))
	}
	// a/0 must be the representative of the merged class (lowest node ID).
	found := false
	for _, f := range col {
		if f.Name(c) == "a/0" {
			found = true
		}
		if f.Name(c) == "g/0" || f.Name(c) == "c/0" {
			t.Fatalf("non-representative fault %s kept", f.Name(c))
		}
	}
	if !found {
		t.Fatal("representative a/0 missing")
	}
}

func TestCollapseNandOrNor(t *testing.T) {
	// NAND: input s-a-0 ≡ output s-a-1.
	c := build(t, func(b *circuit.Builder) {
		b.Input("a")
		b.Input("c")
		b.Gate(circuit.Nand, "g", "a", "c")
		b.Output("g")
	})
	if got := len(CollapseStuckAt(c)); got != 4 {
		t.Fatalf("NAND collapsed = %d, want 4", got)
	}
	// OR: input s-a-1 ≡ output s-a-1.
	c = build(t, func(b *circuit.Builder) {
		b.Input("a")
		b.Input("c")
		b.Gate(circuit.Or, "g", "a", "c")
		b.Output("g")
	})
	if got := len(CollapseStuckAt(c)); got != 4 {
		t.Fatalf("OR collapsed = %d, want 4", got)
	}
	// XOR: no equivalences → all 6 faults stay.
	c = build(t, func(b *circuit.Builder) {
		b.Input("a")
		b.Input("c")
		b.Gate(circuit.Xor, "g", "a", "c")
		b.Output("g")
	})
	if got := len(CollapseStuckAt(c)); got != 6 {
		t.Fatalf("XOR collapsed = %d, want 6", got)
	}
}

func TestCollapseInverterChain(t *testing.T) {
	// a → NOT n1 → NOT n2 (output). All faults collapse into 2 classes:
	// {a/0, n1/1, n2/0} and {a/1, n1/0, n2/1}.
	c := build(t, func(b *circuit.Builder) {
		b.Input("a")
		b.Gate(circuit.Not, "n1", "a")
		b.Gate(circuit.Not, "n2", "n1")
		b.Output("n2")
	})
	col := CollapseStuckAt(c)
	if len(col) != 2 {
		t.Fatalf("inverter chain collapsed = %d, want 2: %v", len(col), names(c, col))
	}
}

func TestCollapseStopsAtFanout(t *testing.T) {
	// a fans out to two AND gates: stem faults and branch faults are
	// distinct sites; the branch s-a-0 merges into its gate output, the
	// stem does not.
	c := build(t, func(b *circuit.Builder) {
		b.Input("a")
		b.Input("c")
		b.Input("d")
		b.Gate(circuit.And, "g1", "a", "c")
		b.Gate(circuit.And, "g2", "a", "d")
		b.Output("g1")
		b.Output("g2")
	})
	col := CollapseStuckAt(c)
	// Sites: a (stem), a~0, a~1 (branches), c, d, g1, g2 = 7 nodes, 14 raw.
	// Equivalences: {a~0/0, c/0, g1/0}, {a~1/0, d/0, g2/0} → 14-4 = 10.
	if len(col) != 10 {
		t.Fatalf("collapsed = %d, want 10: %v", len(col), names(c, col))
	}
	// The stem faults a/0 and a/1 must both survive.
	var haveStem0, haveStem1 bool
	for _, f := range col {
		switch f.Name(c) {
		case "a/0":
			haveStem0 = true
		case "a/1":
			haveStem1 = true
		}
	}
	if !haveStem0 || !haveStem1 {
		t.Fatal("stem faults were merged across the fanout point")
	}
}

func TestCollapseDeterministic(t *testing.T) {
	mk := func() *circuit.Circuit {
		return build(t, func(b *circuit.Builder) {
			b.Input("a")
			b.Input("c")
			b.Gate(circuit.And, "g1", "a", "c")
			b.Gate(circuit.Not, "n", "g1")
			b.Output("n")
		})
	}
	a := CollapseStuckAt(mk())
	b := CollapseStuckAt(mk())
	if len(a) != len(b) {
		t.Fatal("collapse not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("collapse not deterministic")
		}
	}
}

func TestCollapseRatio(t *testing.T) {
	c := build(t, func(b *circuit.Builder) {
		b.Input("a")
		b.Input("c")
		b.Gate(circuit.And, "g", "a", "c")
		b.Output("g")
	})
	r := CollapseRatio(c)
	if r <= 0 || r > 1 {
		t.Fatalf("CollapseRatio = %v", r)
	}
	if r != 4.0/6.0 {
		t.Fatalf("CollapseRatio = %v, want 2/3", r)
	}
}

func TestBridgesUniverse(t *testing.T) {
	// Two independent AND gates and an OR combining them: OR is reachable
	// from both ANDs, so the only non-feedback pair is (g1, g2): 4 faults.
	c := build(t, func(b *circuit.Builder) {
		b.Input("a")
		b.Input("c")
		b.Input("d")
		b.Input("e")
		b.Gate(circuit.And, "g1", "a", "c")
		b.Gate(circuit.And, "g2", "d", "e")
		b.Gate(circuit.Or, "g3", "g1", "g2")
		b.Output("g3")
	})
	bs := Bridges(c)
	if len(bs) != 4 {
		t.Fatalf("Bridges = %d faults, want 4", len(bs))
	}
	g1, _ := c.NodeByName("g1")
	g2, _ := c.NodeByName("g2")
	seen := make(map[Bridge]bool)
	for _, g := range bs {
		seen[g] = true
		pair := (g.Dominant == g1.ID && g.Victim == g2.ID) || (g.Dominant == g2.ID && g.Victim == g1.ID)
		if !pair {
			t.Fatalf("unexpected bridge %s", g.Name(c))
		}
	}
	if len(seen) != 4 {
		t.Fatal("duplicate bridges")
	}
}

func TestBridgesExcludeFeedback(t *testing.T) {
	// g2 depends on g1 → the pair is a feedback bridge and is excluded.
	c := build(t, func(b *circuit.Builder) {
		b.Input("a")
		b.Input("c")
		b.Input("d")
		b.Gate(circuit.And, "g1", "a", "c")
		b.Gate(circuit.And, "g2", "g1", "d")
		b.Output("g2")
	})
	if bs := Bridges(c); len(bs) != 0 {
		t.Fatalf("Bridges = %d faults, want 0 (feedback pair)", len(bs))
	}
}

func TestBridgesOnlyMultiInputGates(t *testing.T) {
	// Inverters and buffers are not bridge sites.
	c := build(t, func(b *circuit.Builder) {
		b.Input("a")
		b.Input("c")
		b.Gate(circuit.Not, "n1", "a")
		b.Gate(circuit.Buf, "b1", "c")
		b.Gate(circuit.And, "g1", "n1", "b1")
		b.Output("g1")
	})
	if sites := BridgeSites(c); len(sites) != 1 {
		t.Fatalf("BridgeSites = %d, want 1 (only g1)", len(sites))
	}
	if bs := Bridges(c); len(bs) != 0 {
		t.Fatalf("Bridges = %d, want 0 (a single site cannot bridge)", len(bs))
	}
}

func TestBridgeName(t *testing.T) {
	c := build(t, func(b *circuit.Builder) {
		b.Input("a")
		b.Input("c")
		b.Input("d")
		b.Input("e")
		b.Gate(circuit.And, "g1", "a", "c")
		b.Gate(circuit.And, "g2", "d", "e")
		b.Gate(circuit.Or, "g3", "g1", "g2")
		b.Output("g3")
	})
	g1, _ := c.NodeByName("g1")
	g2, _ := c.NodeByName("g2")
	br := Bridge{Dominant: g1.ID, Victim: g2.ID, Value: false}
	if got := br.Name(c); got != "(g1,0,g2,1)" {
		t.Fatalf("Name = %q", got)
	}
	br.Value = true
	if got := br.Name(c); got != "(g1,1,g2,0)" {
		t.Fatalf("Name = %q", got)
	}
}

func TestStuckAtName(t *testing.T) {
	c := build(t, func(b *circuit.Builder) {
		b.Input("a")
		b.Input("c")
		b.Gate(circuit.And, "g", "a", "c")
		b.Output("g")
	})
	a, _ := c.NodeByName("a")
	if got := (StuckAt{Node: a.ID, Value: true}).Name(c); got != "a/1" {
		t.Fatalf("Name = %q", got)
	}
	if got := (StuckAt{Node: a.ID, Value: false}).Name(c); got != "a/0" {
		t.Fatalf("Name = %q", got)
	}
}

// sprintfName is how each provider named a fault before AppendName: one
// fmt.Sprintf per fault. It is the reference for the name bytes.
func sprintfName(t *testing.T, p SetProvider, c *circuit.Circuit, d Descriptor) string {
	switch p.(type) {
	case StuckAtProvider:
		v := 0
		if d.V != 0 {
			v = 1
		}
		return fmt.Sprintf("%s/%d", c.Node(int(d.A)).Name, v)
	case BridgeProvider:
		a1, a2 := 0, 1
		if d.V != 0 {
			a1, a2 = 1, 0
		}
		return fmt.Sprintf("(%s,%d,%s,%d)", c.Node(int(d.A)).Name, a1, c.Node(int(d.B)).Name, a2)
	case TransitionProvider:
		edge := "str"
		if d.V != 0 {
			edge = "stf"
		}
		return fmt.Sprintf("%s/%s", c.Node(int(d.A)).Name, edge)
	case PairStuckAtProvider:
		return fmt.Sprintf("{%s/%d,%s/%d}",
			c.Node(int(d.A)).Name, d.V&1, c.Node(int(d.B)).Name, d.V>>1&1)
	}
	t.Fatalf("no reference name format for provider %T", p)
	return ""
}

func TestAppendNameMatchesParentFormat(t *testing.T) {
	var circuits []*circuit.Circuit
	for _, name := range []string{"c17", "s27"} {
		c, err := circuit.EmbeddedBench(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	bb, _ := bench.ByName("bbtas")
	r, err := bb.SynthesizeDefault()
	if err != nil {
		t.Fatal(err)
	}
	circuits = append(circuits, r.Circuit)

	const prefix = "named:"
	for _, c := range circuits {
		for _, id := range ModelIDs() {
			m, _ := Resolve(id)
			for _, set := range []Set{TargetSet, UntargetedSet} {
				p := m.Provider(set)
				ds := p.Enumerate(c)
				if len(ds) == 0 {
					t.Fatalf("%s %s set %d: no faults to name", c.Name, id, set)
				}
				for _, d := range ds {
					want := prefix + sprintfName(t, p, c, d)
					if got := string(p.AppendName([]byte(prefix), c, d)); got != want {
						t.Fatalf("%s %s: AppendName(%+v) = %q, want %q", c.Name, id, d, got, want)
					}
				}
			}
		}
	}
}

func names(c *circuit.Circuit, fs []StuckAt) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name(c)
	}
	return out
}
