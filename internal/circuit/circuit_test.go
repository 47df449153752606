package circuit

import (
	"strings"
	"testing"
)

// buildExample constructs a small reconstruction of the paper's Figure 1
// flavour: a 4-input circuit with two AND gates feeding an OR, with input 2
// and input 3 fanning out.
func buildExample(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("example")
	b.Input("i1")
	b.Input("i2")
	b.Input("i3")
	b.Input("i4")
	b.Gate(And, "g9", "i1", "i2")
	b.Gate(And, "g10", "i2", "i3", "i4")
	b.Gate(Or, "g11", "g9", "g10")
	b.Output("g11")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return c
}

func TestBuildBasics(t *testing.T) {
	c := buildExample(t)
	if c.NumInputs() != 4 || c.NumOutputs() != 1 {
		t.Fatalf("inputs=%d outputs=%d", c.NumInputs(), c.NumOutputs())
	}
	if c.NumGates() != 3 {
		t.Fatalf("NumGates = %d, want 3", c.NumGates())
	}
	if c.VectorSpaceSize() != 16 {
		t.Fatalf("VectorSpaceSize = %d, want 16", c.VectorSpaceSize())
	}
	// i2 fans out to both ANDs → 2 branch nodes; i3 and i4 do not fan out.
	stats := c.ComputeStats()
	if stats.Branches != 2 {
		t.Fatalf("Branches = %d, want 2 (i2 only)", stats.Branches)
	}
	if stats.MultiInputGates != 3 {
		t.Fatalf("MultiInputGates = %d, want 3", stats.MultiInputGates)
	}
}

func TestBranchInsertion(t *testing.T) {
	c := buildExample(t)
	i2, ok := c.NodeByName("i2")
	if !ok {
		t.Fatal("i2 missing")
	}
	if got := len(i2.Fanout); got != 2 {
		t.Fatalf("i2 fanout = %d, want 2 branches", got)
	}
	for _, br := range i2.Fanout {
		n := c.Node(br)
		if n.Kind != Branch {
			t.Fatalf("i2 fanout node %q kind = %v, want Branch", n.Name, n.Kind)
		}
		if n.Stem != i2.ID {
			t.Fatalf("branch stem = %d, want %d", n.Stem, i2.ID)
		}
		if len(n.Fanout) != 1 {
			t.Fatalf("branch fans out %d times, want 1", len(n.Fanout))
		}
	}
}

func TestOutputWithInternalFanoutGetsBranch(t *testing.T) {
	b := NewBuilder("obranch")
	b.Input("a")
	b.Input("bb")
	b.Gate(And, "g", "a", "bb")
	b.Gate(Not, "h", "g") // g feeds h AND is an output → branches
	b.Output("g")
	b.Output("h")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	out0 := c.Node(c.Outputs[0])
	if out0.Kind != Branch {
		t.Fatalf("output 0 kind = %v, want Branch (g fans out)", out0.Kind)
	}
	g, _ := c.NodeByName("g")
	if out0.Stem != g.ID {
		t.Fatalf("output branch stem = %d, want g's id %d", out0.Stem, g.ID)
	}
}

func TestEvalTruthTable(t *testing.T) {
	c := buildExample(t)
	// f = (i1∧i2) ∨ (i2∧i3∧i4), MSB-first vector convention.
	for v := uint64(0); v < 16; v++ {
		i1 := VectorBit(v, 0, 4)
		i2 := VectorBit(v, 1, 4)
		i3 := VectorBit(v, 2, 4)
		i4 := VectorBit(v, 3, 4)
		want := (i1 && i2) || (i2 && i3 && i4)
		vals := c.Eval(v)
		got := c.OutputsOf(vals)[0]
		if got != want {
			t.Fatalf("vector %d: output = %v, want %v", v, got, want)
		}
	}
}

func TestVectorBitConvention(t *testing.T) {
	// The paper writes vector 6 for a 4-input circuit as 0110:
	// input1=0, input2=1, input3=1, input4=0.
	if VectorBit(6, 0, 4) != false || VectorBit(6, 1, 4) != true ||
		VectorBit(6, 2, 4) != true || VectorBit(6, 3, 4) != false {
		t.Fatal("VectorBit does not follow the paper's MSB-first convention")
	}
	v := uint64(0)
	v = SetVectorBit(v, 1, 4, true)
	v = SetVectorBit(v, 2, 4, true)
	if v != 6 {
		t.Fatalf("SetVectorBit composition = %d, want 6", v)
	}
	v = SetVectorBit(v, 1, 4, false)
	if v != 2 {
		t.Fatalf("SetVectorBit clear = %d, want 2", v)
	}
}

func TestAllGateKindsEval(t *testing.T) {
	b := NewBuilder("kinds")
	b.Input("a")
	b.Input("c")
	b.Gate(And, "and2", "a", "c")
	b.Gate(Nand, "nand2", "a", "c")
	b.Gate(Or, "or2", "a", "c")
	b.Gate(Nor, "nor2", "a", "c")
	b.Gate(Xor, "xor2", "a", "c")
	b.Gate(Xnor, "xnor2", "a", "c")
	b.Gate(Not, "not1", "a")
	b.Gate(Buf, "buf1", "c")
	for _, o := range []string{"and2", "nand2", "or2", "nor2", "xor2", "xnor2", "not1", "buf1"} {
		b.Output(o)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for v := uint64(0); v < 4; v++ {
		a := VectorBit(v, 0, 2)
		cc := VectorBit(v, 1, 2)
		vals := c.Eval(v)
		outs := c.OutputsOf(vals)
		want := []bool{a && cc, !(a && cc), a || cc, !(a || cc), a != cc, a == cc, !a, cc}
		for i, w := range want {
			if outs[i] != w {
				t.Fatalf("v=%d output %d = %v, want %v", v, i, outs[i], w)
			}
		}
	}
}

func TestConstNodes(t *testing.T) {
	b := NewBuilder("consts")
	b.Input("a")
	b.Const("zero", false)
	b.Const("one", true)
	b.Gate(And, "g0", "a", "zero")
	b.Gate(And, "g1", "a", "one")
	b.Output("g0")
	b.Output("g1")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for v := uint64(0); v < 2; v++ {
		outs := c.OutputsOf(c.Eval(v))
		if outs[0] != false {
			t.Fatalf("v=%d: a AND 0 = %v", v, outs[0])
		}
		if outs[1] != (v == 1) {
			t.Fatalf("v=%d: a AND 1 = %v", v, outs[1])
		}
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := map[string]func(*Builder){
		"duplicate name": func(b *Builder) {
			b.Input("a")
			b.Input("a")
			b.Output("a")
		},
		"undeclared fanin": func(b *Builder) {
			b.Input("a")
			b.Gate(And, "g", "a", "nope")
			b.Output("g")
		},
		"too few inputs": func(b *Builder) {
			b.Input("a")
			b.Gate(And, "g", "a")
			b.Output("g")
		},
		"not a gate kind": func(b *Builder) {
			b.Input("a")
			b.Gate(Input, "g", "a")
			b.Output("g")
		},
		"undeclared output": func(b *Builder) {
			b.Input("a")
			b.Output("zzz")
		},
		"no outputs": func(b *Builder) {
			b.Input("a")
		},
	}
	for name, fn := range cases {
		b := NewBuilder(name)
		fn(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: Build succeeded, want error", name)
		}
	}
}

func TestNoInputsError(t *testing.T) {
	b := NewBuilder("noin")
	b.Const("one", true)
	b.Output("one")
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded with no inputs")
	}
}

func TestDuplicateFaninRejected(t *testing.T) {
	b := NewBuilder("dup")
	b.Input("a")
	b.Input("c")
	b.Gate(And, "g", "a", "a")
	b.Output("g")
	if _, err := b.Build(); err == nil {
		t.Fatal("Build succeeded with duplicated fanin pin")
	}
}

func TestLevelization(t *testing.T) {
	c := buildExample(t)
	for _, id := range c.TopoOrder() {
		n := c.Node(id)
		for _, f := range n.Fanin {
			if c.Node(f).Level >= n.Level {
				t.Fatalf("node %q level %d not above fanin %q level %d",
					n.Name, n.Level, c.Node(f).Name, c.Node(f).Level)
			}
		}
	}
	g11, _ := c.NodeByName("g11")
	if g11.Level < 2 {
		t.Fatalf("or gate level = %d, want ≥ 2", g11.Level)
	}
}

func TestTopoOrderCoversAll(t *testing.T) {
	c := buildExample(t)
	seen := make(map[int]bool)
	pos := make(map[int]int)
	for i, id := range c.TopoOrder() {
		if seen[id] {
			t.Fatalf("node %d appears twice in topo order", id)
		}
		seen[id] = true
		pos[id] = i
	}
	if len(seen) != c.NumNodes() {
		t.Fatalf("topo order covers %d of %d nodes", len(seen), c.NumNodes())
	}
	for _, n := range c.Nodes {
		for _, f := range n.Fanin {
			if pos[f] >= pos[n.ID] {
				t.Fatalf("fanin %d not before %d in topo order", f, n.ID)
			}
		}
	}
}

func TestTransitiveFaninFanout(t *testing.T) {
	c := buildExample(t)
	g9, _ := c.NodeByName("g9")
	g10, _ := c.NodeByName("g10")
	g11, _ := c.NodeByName("g11")
	i1, _ := c.NodeByName("i1")
	i3, _ := c.NodeByName("i3")

	fin := c.TransitiveFanin(g9.ID)
	if !fin[i1.ID] || fin[i3.ID] {
		t.Fatal("g9 fanin cone wrong: must contain i1, not i3")
	}
	if !fin[g9.ID] {
		t.Fatal("fanin cone must include the node itself")
	}
	fout := c.TransitiveFanout(g10.ID)
	if !fout[g11.ID] {
		t.Fatal("g10 fanout must reach g11")
	}
	if fout[g9.ID] {
		t.Fatal("g10 fanout must not contain g9")
	}
}

func TestParseWriteRoundTrip(t *testing.T) {
	src := `
# a tiny full adder
circuit adder
input a b cin
output sum cout
gate xor t1 a b
gate xor sum t1 cin
gate and t2 a b
gate and t3 t1 cin
gate or cout t2 t3
`
	c, err := ParseString(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if c.Name != "adder" || c.NumInputs() != 3 || c.NumOutputs() != 2 {
		t.Fatalf("parsed shape wrong: %s", c.ComputeStats())
	}
	// Verify adder truth table.
	for v := uint64(0); v < 8; v++ {
		a := b2i(VectorBit(v, 0, 3))
		b := b2i(VectorBit(v, 1, 3))
		ci := b2i(VectorBit(v, 2, 3))
		outs := c.OutputsOf(c.Eval(v))
		if b2i(outs[0]) != (a+b+ci)%2 || b2i(outs[1]) != (a+b+ci)/2 {
			t.Fatalf("adder wrong at v=%d", v)
		}
	}

	// Round trip.
	text := c.WriteString()
	c2, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if c2.NumInputs() != c.NumInputs() || c2.NumOutputs() != c.NumOutputs() || c2.NumGates() != c.NumGates() {
		t.Fatalf("round trip changed shape: %s vs %s", c.ComputeStats(), c2.ComputeStats())
	}
	for v := uint64(0); v < 8; v++ {
		o1 := c.OutputsOf(c.Eval(v))
		o2 := c2.OutputsOf(c2.Eval(v))
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("round trip changed function at v=%d output %d", v, i)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"input a\noutput a", // no circuit
		"circuit x\ncircuit y\ninput a\noutput a", // duplicate circuit
		"circuit x\ninput a\ngate bogus g a\noutput g",
		"circuit x\ninput a\ngate and\noutput a",   // short gate
		"circuit x\ninput a\nconst k 2\noutput a",  // bad const
		"circuit x\ninput a\nfrobnicate\noutput a", // unknown stmt
		"circuit x\ninput\noutput a",               // empty input list
	}
	for i, src := range bad {
		if _, err := ParseString(src); err == nil {
			t.Errorf("case %d: Parse succeeded, want error:\n%s", i, src)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	c := buildExample(t)
	var sb strings.Builder
	if err := c.WriteDOT(&sb); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	dot := sb.String()
	for _, want := range []string{"digraph", "triangle", "->", "g11"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range []Kind{Input, Buf, Not, And, Nand, Or, Nor, Xor, Xnor, Const0, Const1} {
		got, ok := KindFromString(k.String())
		if !ok || got != k {
			t.Errorf("KindFromString(%q) = %v,%v", k.String(), got, ok)
		}
	}
	if _, ok := KindFromString("branch"); ok {
		t.Error("KindFromString must reject branch")
	}
	if _, ok := KindFromString("zzz"); ok {
		t.Error("KindFromString accepted garbage")
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestLevelOrderIsLevelGroupedTopo(t *testing.T) {
	b := NewBuilder("levels")
	b.Input("a")
	b.Input("c")
	b.Gate(And, "g1", "a", "c")
	b.Gate(Or, "g2", "a", "g1")
	b.Gate(Xor, "g3", "g1", "g2")
	b.Output("g3")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	lo := c.LevelOrder()
	if len(lo) != c.NumNodes() {
		t.Fatalf("LevelOrder has %d nodes, want %d", len(lo), c.NumNodes())
	}
	seen := make(map[int]bool, len(lo))
	prevLevel := -1
	for _, id := range lo {
		n := c.Node(id)
		if n.Level < prevLevel {
			t.Fatalf("LevelOrder not grouped by level: node %d at level %d after level %d", id, n.Level, prevLevel)
		}
		prevLevel = n.Level
		for _, f := range n.Fanin {
			if !seen[f] {
				t.Fatalf("node %d scheduled before fanin %d", id, f)
			}
		}
		seen[id] = true
	}
}
