package circuit

import (
	"os"
	"strings"
	"sync"
	"testing"
)

// TestParseBenchC17 checks the embedded c17 against a hand-built reference
// of the same NAND network: identical interface and identical function on
// all 32 vectors.
func TestParseBenchC17(t *testing.T) {
	c, err := EmbeddedBench("c17")
	if err != nil {
		t.Fatalf("EmbeddedBench(c17): %v", err)
	}
	if c.NumInputs() != 5 || c.NumOutputs() != 2 {
		t.Fatalf("c17 interface = %d in / %d out, want 5/2", c.NumInputs(), c.NumOutputs())
	}
	if g := c.ComputeStats().Gates; g != 6 {
		t.Fatalf("c17 has %d gates, want 6", g)
	}

	b := NewBuilder("c17ref")
	for _, in := range []string{"1", "2", "3", "6", "7"} {
		b.Input(in)
	}
	b.Gate(Nand, "10", "1", "3")
	b.Gate(Nand, "11", "3", "6")
	b.Gate(Nand, "16", "2", "11")
	b.Gate(Nand, "19", "11", "7")
	b.Gate(Nand, "22", "10", "16")
	b.Gate(Nand, "23", "16", "19")
	b.Output("22")
	b.Output("23")
	ref, err := b.Build()
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	for v := uint64(0); v < 32; v++ {
		got := c.OutputsOf(c.Eval(v))
		want := ref.OutputsOf(ref.Eval(v))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("c17 output %d differs from reference at vector %d", i, v)
			}
		}
	}
}

// TestParseBenchS27DFFStripping checks the ISCAS-89 scan view: DFF outputs
// become pseudo inputs, DFF data signals pseudo outputs, and the stripped
// circuit is combinational.
func TestParseBenchS27DFFStripping(t *testing.T) {
	c, err := EmbeddedBench("s27")
	if err != nil {
		t.Fatalf("EmbeddedBench(s27): %v", err)
	}
	if c.NumInputs() != 7 { // 4 declared + 3 DFF outputs
		t.Fatalf("s27 has %d inputs, want 7", c.NumInputs())
	}
	if c.NumOutputs() != 4 { // 1 declared + 3 DFF data signals
		t.Fatalf("s27 has %d outputs, want 4", c.NumOutputs())
	}
	// Pseudo inputs come after the declared ones, in DFF declaration order.
	var names []string
	for _, id := range c.Inputs {
		names = append(names, c.Node(id).Name)
	}
	if got := strings.Join(names, " "); got != "G0 G1 G2 G3 G5 G6 G7" {
		t.Fatalf("s27 input order = %q", got)
	}
}

// TestParseBenchW64 checks the wide sample: too many inputs for exhaustive
// analysis, but well-formed and with narrow output cones.
func TestParseBenchW64(t *testing.T) {
	c, err := EmbeddedBench("w64")
	if err != nil {
		t.Fatalf("EmbeddedBench(w64): %v", err)
	}
	if c.NumInputs() <= 60 {
		t.Fatalf("w64 has %d inputs, want > 60", c.NumInputs())
	}
	if c.NumOutputs() != 16 {
		t.Fatalf("w64 has %d outputs, want 16", c.NumOutputs())
	}
	inputPos := make(map[int]bool, len(c.Inputs))
	for _, id := range c.Inputs {
		inputPos[id] = true
	}
	for _, oid := range c.Outputs {
		sup := 0
		for id, in := range c.TransitiveFanin(oid) {
			if in && inputPos[id] {
				sup++
			}
		}
		if sup > 16 {
			t.Fatalf("w64 output %s cone spans %d inputs > 16", c.Node(oid).Name, sup)
		}
	}
}

func TestEmbeddedBenchNames(t *testing.T) {
	names := EmbeddedBenchNames()
	want := []string{"c17", "s27", "w64"}
	if len(names) != len(want) {
		t.Fatalf("EmbeddedBenchNames = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("EmbeddedBenchNames = %v, want %v", names, want)
		}
	}
	if _, err := EmbeddedBench("nope"); err == nil {
		t.Fatal("EmbeddedBench accepted an unknown name")
	}
}

// TestParseBenchForwardReference: statement order is free in .bench.
func TestParseBenchForwardReference(t *testing.T) {
	c, err := ParseBenchString("fwd", `
		OUTPUT(z)
		z = AND(a, b)
		b = NOT(x)
		INPUT(x)
		INPUT(y)
		a = OR(x, y)
	`)
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	if c.NumInputs() != 2 || c.NumOutputs() != 1 {
		t.Fatalf("interface = %d/%d", c.NumInputs(), c.NumOutputs())
	}
	// z = (x|y) & !x = y & !x
	for v := uint64(0); v < 4; v++ {
		x := VectorBit(v, 0, 2)
		y := VectorBit(v, 1, 2)
		if got := c.OutputsOf(c.Eval(v))[0]; got != (y && !x) {
			t.Fatalf("wrong function at v=%d", v)
		}
	}
}

// TestParseBenchDegenerateGates: single-fanin multi-input gates collapse to
// BUF/NOT, and idempotent gates tolerate repeated fanins.
func TestParseBenchDegenerateGates(t *testing.T) {
	c, err := ParseBenchString("degen", `
		INPUT(a)
		INPUT(b)
		OUTPUT(z)
		t1 = AND(a)
		t2 = NOR(b)
		t3 = OR(t1, t1, t2)
		z = NAND(t3, a)
	`)
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	n1, _ := c.NodeByName("t1")
	if n1.Kind != Buf {
		t.Fatalf("AND(a) parsed as %v, want buf", n1.Kind)
	}
	n2, _ := c.NodeByName("t2")
	if n2.Kind != Not {
		t.Fatalf("NOR(b) parsed as %v, want not", n2.Kind)
	}
	n3, _ := c.NodeByName("t3")
	if len(n3.Fanin) != 2 {
		t.Fatalf("OR(t1,t1,t2) kept %d fanins, want 2", len(n3.Fanin))
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := map[string]string{
		"unknown gate":     "INPUT(a)\nOUTPUT(z)\nz = MAJ(a, a, a)\n",
		"undefined signal": "INPUT(a)\nOUTPUT(z)\nz = AND(a, ghost)\n",
		"double defined":   "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\nz = OR(a, b)\n",
		"input redefined":  "INPUT(a)\nINPUT(b)\nOUTPUT(a)\na = AND(a, b)\n",
		"xor dup fanin":    "INPUT(a)\nOUTPUT(z)\nz = XOR(a, a)\n",
		"comb loop":        "INPUT(a)\nOUTPUT(p)\np = AND(a, q)\nq = OR(a, p)\n",
		"no inputs":        "OUTPUT(z)\nz = AND(x, y)\n",
		"undefined output": "INPUT(a)\nOUTPUT(z)\n",
		"bad statement":    "INPUT(a)\nOUTPUT(a)\nwhatever here\n",
		"malformed gate":   "INPUT(a)\nOUTPUT(z)\nz = AND(a\n",
		"duplicate output": "INPUT(a)\nOUTPUT(z)\nOUTPUT(z)\nz = NOT(a)\n",
	}
	for name, src := range cases {
		if _, err := ParseBenchString("bad", src); err == nil {
			t.Errorf("%s: ParseBench accepted %q", name, src)
		}
	}
}

// TestParseBenchDFFDataAlreadyOutput: a DFF data signal that is also a
// declared primary output (legal ISCAS-89) is observed once, not twice —
// a duplicate output column would inflate the fault universe.
func TestParseBenchDFFDataAlreadyOutput(t *testing.T) {
	c, err := ParseBenchString("dup", `
		INPUT(a)
		OUTPUT(n1)
		n1 = NOT(a)
		G1 = DFF(n1)
		G2 = DFF(n1)
	`)
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	if c.NumOutputs() != 1 {
		t.Fatalf("NumOutputs = %d, want 1 (n1 observed once)", c.NumOutputs())
	}
	if c.NumInputs() != 3 { // a + pseudo inputs G1, G2
		t.Fatalf("NumInputs = %d, want 3", c.NumInputs())
	}
}

// TestParseBenchCaseInsensitive: keywords and gate names may be lower case.
func TestParseBenchCaseInsensitive(t *testing.T) {
	c, err := ParseBenchString("lc", `
		input(a)
		input(b)
		output(z)
		z = nand(a, b)
	`)
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	n, _ := c.NodeByName("z")
	if n.Kind != Nand {
		t.Fatalf("nand parsed as %v", n.Kind)
	}
}

// Each embedded sample is parsed once: every call, 8 concurrent first ones
// included, returns the same shared circuit, equal to a fresh parse of its
// file, and a call after the first allocates nothing.
func TestEmbeddedBenchShared(t *testing.T) {
	for _, name := range EmbeddedBenchNames() {
		got := make([]*Circuit, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, err := EmbeddedBench(name)
				if err != nil {
					t.Errorf("%s: %v", name, err)
				}
				got[i] = c
			}(i)
		}
		wg.Wait()
		first := got[0]
		for i, c := range got {
			if c != first {
				t.Fatalf("%s: concurrent call %d returned another circuit", name, i)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if c, err := EmbeddedBench(name); err != nil || c != first {
				t.Fatalf("%s: a repeat call returned another circuit (%v)", name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a repeat EmbeddedBench allocates %.0f times, want 0", name, allocs)
		}
		src, err := os.ReadFile("benchdata/" + name + ".bench")
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := ParseBenchString(name, string(src))
		if err != nil {
			t.Fatal(err)
		}
		if fresh == first || fresh.WriteString() != first.WriteString() {
			t.Errorf("%s: the shared sample differs from a fresh parse", name)
		}
	}
}
