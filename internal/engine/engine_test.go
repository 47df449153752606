package engine

import (
	"math/rand"
	"strconv"
	"testing"

	"ndetect/internal/bench"
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
				if regs[id] != want[id] {
					t.Fatalf("trial %d node %d v=%d: scalar %v, reference %v",
						trial, id, v, regs[id], want[id])
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
						if got != regs[id] {
							t.Fatalf("trial %d node %d v=%d: word %v, scalar %v", trial, id, v, got, regs[id])
						}
					}
				}
			}
		}
	}
}

// TestCompileAllBaseProgram pins the invariant every interpreter outside
// ConeExec relies on: on every embedded circuit and on random circuits,
// CompileAll emits only the ten base opcodes, holds one register per node,
// and each node's chain writes only that node's register, the chains
// together covering the whole program.
func TestCompileAllBaseProgram(t *testing.T) {
	var circuits []*circuit.Circuit
	for _, name := range append(bench.Names(), circuit.EmbeddedBenchNames()...) {
		c, err := bench.CircuitByName(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		circuits = append(circuits, randomCircuit(t, rng, 2+rng.Intn(8), 3+rng.Intn(40)))
	}
	for i, c := range circuits {
		p := CompileAll(c)
		if p.NumRegs != c.NumNodes() {
			t.Fatalf("circuit %d (%s): %d registers for %d nodes", i, c.Name, p.NumRegs, c.NumNodes())
		}
		for _, ins := range p.Instrs {
			if ins.Op > OpXnor {
				t.Fatalf("circuit %d (%s): fused opcode %v in a CompileAll program", i, c.Name, ins.Op)
			}
		}
		covered := 0
		for id := range c.Nodes {
			r := p.nodeInstr[id]
			for _, ins := range p.Instrs[r[0]:r[1]] {
				if ins.Dst != int32(id) {
					t.Fatalf("circuit %d (%s): node %d's chain writes register %d", i, c.Name, id, ins.Dst)
				}
			}
			covered += int(r[1] - r[0])
		}
		if covered != len(p.Instrs) {
			t.Fatalf("circuit %d (%s): node chains cover %d of %d instructions", i, c.Name, covered, len(p.Instrs))
		}
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
