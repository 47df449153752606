package engine

import (
	"math/rand"
	"strconv"
	"testing"

	"ndetect/internal/circuit"
)

// randomCircuit builds a random normalized DAG circuit (the same shape the
// sim package fuzzes with).
func randomCircuit(t *testing.T, rng *rand.Rand, inputs, gates int) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("rand")
	names := make([]string, 0, inputs+gates)
	for i := 0; i < inputs; i++ {
		n := "x" + strconv.Itoa(i)
		b.Input(n)
		names = append(names, n)
	}
	kinds := []circuit.Kind{circuit.And, circuit.Or, circuit.Nand, circuit.Nor, circuit.Xor, circuit.Xnor, circuit.Not, circuit.Buf}
	for g := 0; g < gates; g++ {
		kind := kinds[rng.Intn(len(kinds))]
		n := "g" + strconv.Itoa(g)
		if kind == circuit.Not || kind == circuit.Buf {
			b.Gate(kind, n, names[rng.Intn(len(names))])
		} else {
			nf := 2 + rng.Intn(4) // up to 5 fanins: exercises long chains
			perm := rng.Perm(len(names))
			fins := make([]string, 0, nf)
			for _, p := range perm[:min(nf, len(perm))] {
				fins = append(fins, names[p])
			}
			b.Gate(kind, n, fins...)
		}
		names = append(names, n)
	}
	nOut := 1 + rng.Intn(3)
	for i := 0; i < nOut; i++ {
		b.Output("g" + strconv.Itoa(gates-1-i))
	}
	c, err := b.Build()
	if err != nil {
		t.Fatalf("random Build: %v", err)
	}
	return c
}

func TestScalarMatchesCircuitEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		c := randomCircuit(t, rng, 3+rng.Intn(6), 5+rng.Intn(25))
		p := CompileAll(c)
		regs := make([]bool, p.NumRegs)
		for v := 0; v < c.VectorSpaceSize(); v++ {
			p.EvalScalar(uint64(v), regs)
			want := c.Eval(uint64(v))
			for id := range c.Nodes {
				if regs[p.NodeReg[id]] != want[id] {
					t.Fatalf("trial %d node %d v=%d: scalar %v, reference %v",
						trial, id, v, regs[p.NodeReg[id]], want[id])
				}
			}
		}
	}
}

func TestWordBlocksMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		c := randomCircuit(t, rng, 7+rng.Intn(4), 10+rng.Intn(20))
		p := CompileAll(c)
		size := c.VectorSpaceSize()
		nWords := (size + 63) / 64
		blockWords := 1 + rng.Intn(5)
		x := NewExec(p, blockWords)
		regs := make([]bool, p.NumRegs)
		for lo := 0; lo < nWords; lo += blockWords {
			hi := min(lo+blockWords, nWords)
			x.Eval(lo, hi)
			for w := 0; w < hi-lo; w++ {
				for b := 0; b < 64; b++ {
					v := (lo+w)*64 + b
					if v >= size {
						break
					}
					p.EvalScalar(uint64(v), regs)
					for id := range c.Nodes {
						got := x.Node(id)[w]&(1<<uint(b)) != 0
						if got != regs[p.NodeReg[id]] {
							t.Fatalf("trial %d node %d v=%d: word %v, scalar %v", trial, id, v, got, regs[p.NodeReg[id]])
						}
					}
				}
			}
		}
	}
}

func TestOutputDirectedCompileMatchesKeepAll(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		c := randomCircuit(t, rng, 4+rng.Intn(5), 8+rng.Intn(25))
		full := CompileAll(c)
		lean := Compile(c, nil)
		fregs := make([]bool, full.NumRegs)
		lregs := make([]bool, lean.NumRegs)
		for v := 0; v < c.VectorSpaceSize(); v++ {
			full.EvalScalar(uint64(v), fregs)
			lean.EvalScalar(uint64(v), lregs)
			for i := range c.Outputs {
				if lregs[lean.OutputReg[i]] != fregs[full.OutputReg[i]] {
					t.Fatalf("trial %d output %d v=%d disagrees", trial, i, v)
				}
			}
		}
	}
}

// TestRegisterReuse pins the "live registers ≪ nodes" property: a deep
// chain of gates needs a constant-size register file when only the output
// is kept, because every interior register is retired after its single
// read.
func TestRegisterReuse(t *testing.T) {
	b := circuit.NewBuilder("chain")
	b.Input("x0")
	b.Input("x1")
	b.Gate(circuit.And, "g0", "x0", "x1")
	prev := "g0"
	for i := 1; i < 100; i++ {
		n := "g" + strconv.Itoa(i)
		kind := circuit.Not
		if i%2 == 0 {
			kind = circuit.Buf
		}
		b.Gate(kind, n, prev)
		prev = n
	}
	b.Output(prev)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p := Compile(c, nil)
	if p.NumRegs >= c.NumNodes()/4 {
		t.Fatalf("chain of %d nodes compiled to %d registers; reuse is not engaging", c.NumNodes(), p.NumRegs)
	}
	if CompileAll(c).NumRegs != c.NumNodes() {
		t.Fatal("CompileAll must pin every node")
	}
}

// TestDeadLogicElimination: logic reaching no output and no kept node is
// not compiled.
func TestDeadLogicElimination(t *testing.T) {
	b := circuit.NewBuilder("dead")
	b.Input("a")
	b.Input("b")
	b.Gate(circuit.And, "live", "a", "b")
	b.Gate(circuit.Xor, "dead", "a", "b")
	b.Output("live")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p := Compile(c, nil)
	dead, _ := c.NodeByName("dead")
	if p.NodeReg[dead.ID] != -1 {
		t.Fatal("dead node was materialized")
	}
	kept := Compile(c, []int{dead.ID})
	if kept.NodeReg[dead.ID] < 0 {
		t.Fatal("kept node was not materialized")
	}
}

// compileCone lowers the transitive fanout cone of one site.
func compileCone(p *Program, site int) *ConeProgram {
	return p.NewConeCompiler().Compile([]int{site})
}

// TestConeMatchesFullFlip: replaying a line's compiled cone against a good
// block (PropInto, the production replay) must reproduce exactly the
// outputs of a full re-evaluation with the line forced to its complement.
func TestConeMatchesFullFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 15; trial++ {
		c := randomCircuit(t, rng, 4+rng.Intn(4), 8+rng.Intn(20))
		p := CompileAll(c)
		nWords := (c.VectorSpaceSize() + 63) / 64
		x := NewExec(p, nWords)
		x.Eval(0, nWords)
		cx := NewConeExec(nWords)
		good := make([]bool, p.NumRegs)
		bad := make([]bool, p.NumRegs)
		for site := 0; site < c.NumNodes(); site++ {
			cp := compileCone(p, site)
			prop := make([]uint64, nWords)
			cx.PropInto(cp, x, prop)
			for v := 0; v < c.VectorSpaceSize(); v++ {
				p.EvalScalar(uint64(v), good)
				p.EvalScalarForced(uint64(v), site, !good[site], bad)
				want := false
				for _, o := range c.Outputs {
					if good[o] != bad[o] {
						want = true
						break
					}
				}
				if got := prop[v/64]&(1<<uint(v%64)) != 0; got != want {
					t.Fatalf("trial %d site %d v=%d: cone prop %v, forced reference %v",
						trial, site, v, got, want)
				}
			}
		}
	}
}

// TestExecTVDefinitePatterns: on fully definite rails the dual-rail
// interpreter must agree with the scalar interpreter at every node.
func TestExecTVDefinitePatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		c := randomCircuit(t, rng, 4+rng.Intn(3), 8+rng.Intn(20))
		p := CompileAll(c)
		n := p.NumRegs
		p1 := make([]uint64, n)
		p0 := make([]uint64, n)
		size := c.VectorSpaceSize()
		k := min(64, size)
		m := c.NumInputs()
		for i, id := range c.Inputs {
			var r1, r0 uint64
			for j := 0; j < k; j++ {
				if circuit.VectorBit(uint64(j), i, m) {
					r1 |= 1 << uint(j)
				} else {
					r0 |= 1 << uint(j)
				}
			}
			p1[id], p0[id] = r1, r0
		}
		p.ExecTV(c.TopoOrder(), p1, p0)
		regs := make([]bool, n)
		for j := 0; j < k; j++ {
			p.EvalScalar(uint64(j), regs)
			for id := range c.Nodes {
				d1 := p1[id]&(1<<uint(j)) != 0
				d0 := p0[id]&(1<<uint(j)) != 0
				if d1 == d0 {
					t.Fatalf("trial %d node %d pattern %d: definite input gave X or contradiction", trial, id, j)
				}
				if d1 != regs[id] {
					t.Fatalf("trial %d node %d pattern %d: dual-rail %v, scalar %v", trial, id, j, d1, regs[id])
				}
			}
		}
	}
}

func TestAlternatingPatterns(t *testing.T) {
	for shift := uint(0); shift < 6; shift++ {
		pat := alternating(shift)
		for v := uint(0); v < 64; v++ {
			want := (v>>shift)&1 == 1
			if got := pat&(1<<v) != 0; got != want {
				t.Fatalf("alternating(%d) bit %d = %v, want %v", shift, v, got, want)
			}
		}
	}
}
