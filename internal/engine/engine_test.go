package engine

import (
	"math/bits"
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

// TestWordBlocksMatchScalar: every node's word-block value agrees with the
// per-vector reference evaluator circuit.EvalInto at every vector.
func TestWordBlocksMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		c := randomCircuit(t, rng, 7+rng.Intn(4), 10+rng.Intn(20))
		p := CompileAll(c)
		size := c.VectorSpaceSize()
		nWords := (size + 63) / 64
		blockWords := 1 + rng.Intn(5)
		x := NewExec(p, blockWords)
		regs := make([]bool, c.NumNodes())
		for lo := 0; lo < nWords; lo += blockWords {
			hi := min(lo+blockWords, nWords)
			x.Eval(lo, hi)
			for w := 0; w < hi-lo; w++ {
				for b := 0; b < 64; b++ {
					v := (lo+w)*64 + b
					if v >= size {
						break
					}
					c.EvalInto(uint64(v), regs)
					for id := range c.Nodes {
						got := x.Node(id)[w]&(1<<uint(b)) != 0
						if got != regs[id] {
							t.Fatalf("trial %d node %d v=%d: word %v, reference %v", trial, id, v, got, regs[id])
						}
					}
				}
			}
		}
	}
}

// TestCompileAllBaseProgram pins the invariant ExecTV's subset execution
// relies on: on every embedded circuit and on random circuits, CompileAll
// holds one register per node, and each node's chain writes only that
// node's register, the chains together covering the whole program.
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
	return p.NewConeCompiler().Compile(site)
}

// conesMatchReference replays cones of c at every block width in widths
// and compares each mask bit with circuit.EvalInto: PropInto on the cone
// of every node against the circuit evaluated with that node complemented,
// and, for `pairs` random pairs of distinct nodes, PropPairInto on the
// cone of the pair's higher-level node, given the other node's cone
// outputs, against a block evaluated with the other node forced
// (EvalForced), against the circuit evaluated with both nodes held at
// their forced values.
func conesMatchReference(t *testing.T, rng *rand.Rand, c *circuit.Circuit, widths []int, pairs int) {
	t.Helper()
	p := CompileAll(c)
	cc := p.NewConeCompiler()
	size := c.VectorSpaceSize()
	nWords := (size + 63) / 64
	good := make([][]bool, size)
	for v := range good {
		good[v] = c.Eval(uint64(v))
	}
	// reference returns the vectors at which some primary output differs
	// from the good machine when the nodes force(v) lists are held.
	bad := make([]bool, c.NumNodes())
	reference := func(force func(v int) []circuit.Force) []uint64 {
		mask := make([]uint64, nWords)
		for v := 0; v < size; v++ {
			c.EvalInto(uint64(v), bad, force(v)...)
			for _, o := range c.Outputs {
				if good[v][o] != bad[o] {
					mask[v/64] |= 1 << uint(v%64)
					break
				}
			}
		}
		return mask
	}

	type cone struct {
		cp, baseCone *ConeProgram
		base         int // −1: flip replay (PropInto)
		bv, pv       bool
		want         []uint64
	}
	var cones []cone
	for site := range c.Nodes {
		want := reference(func(v int) []circuit.Force {
			return []circuit.Force{{Node: site, Value: !good[v][site]}}
		})
		cones = append(cones, cone{cp: cc.Compile(site), base: -1, want: want})
	}
	for i := 0; i < pairs; i++ {
		perm := rng.Perm(c.NumNodes())
		base, partner := perm[0], perm[1]
		if c.Node(base).Level > c.Node(partner).Level {
			base, partner = partner, base
		}
		bv, pv := rng.Intn(2) == 1, rng.Intn(2) == 1
		forced := []circuit.Force{{Node: base, Value: bv}, {Node: partner, Value: pv}}
		want := reference(func(int) []circuit.Force { return forced })
		cones = append(cones, cone{cp: cc.Compile(partner), baseCone: cc.Compile(base), base: base, bv: bv, pv: pv, want: want})
	}

	for _, bw := range widths {
		bw = min(bw, nWords)
		x := NewExec(p, bw)
		y := NewExec(p, bw)
		cx := NewConeExec(bw)
		dst := make([]uint64, bw)
		for lo := 0; lo < nWords; lo += bw {
			hi := min(lo+bw, nWords)
			x.Eval(lo, hi)
			for _, k := range cones {
				if k.base < 0 {
					cx.PropInto(k.cp, x, dst)
				} else {
					y.EvalForced(x, k.base, k.bv)
					cx.PropPairInto(k.cp, k.pv, k.baseCone.Outputs, y, x, dst)
				}
				for w := lo; w < hi; w++ {
					// Bits beyond the universe tail are unmasked by contract.
					valid := ^uint64(0)
					if rem := size - 64*w; rem < 64 {
						valid = 1<<uint(rem) - 1
					}
					if diff := (dst[w-lo] ^ k.want[w]) & valid; diff != 0 {
						b := bits.TrailingZeros64(diff)
						want := k.want[w]>>uint(b)&1 == 1
						t.Fatalf("site %d (base %d forced %v, site forced %v), block width %d: vector %d: replay %v, reference %v",
							k.cp.Site, k.base, k.bv, k.pv, bw, 64*w+b, !want, want)
					}
				}
			}
		}
	}
}

// TestConeMatchesFullFlip: replaying a line's compiled cone against a good
// block (PropInto, the stuck-at replay) must reproduce exactly the outputs
// of a full evaluation with the line forced to its complement, and
// replaying the higher-level node's cone of a pair against a block with the
// other node forced (EvalForced and PropPairInto, the msa2 replay) those
// of a full evaluation with both nodes forced. Circuits of 4–7 inputs fit
// one block; those of 8–11 inputs are replayed in blocks of one word, one
// tile and a tile plus a tail.
func TestConeMatchesFullFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	widths := []int{1, tileWords, tileWords + 3}
	for trial := 0; trial < 19; trial++ {
		inputs, gates := 4+rng.Intn(4), 8+rng.Intn(20)
		if trial >= 15 {
			// The reference costs nodes² · 2^inputs evaluations per circuit.
			inputs, gates = 8+rng.Intn(4), 10+rng.Intn(10)
		}
		c := randomCircuit(t, rng, inputs, gates)
		conesMatchReference(t, rng, c, widths, 8)
	}
}

// FuzzConeReplay cross-checks cone replay on fuzzer-chosen random circuits
// against the per-vector reference, at a block width of one tile plus a
// one-word tail.
func FuzzConeReplay(f *testing.F) {
	f.Add(int64(1), 6, 12)
	f.Add(int64(42), 9, 30)
	f.Add(int64(7), 4, 25)
	f.Fuzz(func(t *testing.T, seed int64, inputs, gates int) {
		// randomCircuit declares up to 3 outputs named g{gates-1-i} and
		// draws at least 2 distinct fanins for its first gate, so it needs
		// at least 3 gates and 2 inputs to be well-formed.
		if inputs < 2 || inputs > 11 || gates < 3 || gates > 40 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(t, rng, inputs, gates)
		conesMatchReference(t, rng, c, []int{tileWords + 1}, 0)
	})
}

// TestExecTVDefinitePatterns: on fully definite rails the dual-rail
// interpreter must agree with circuit.EvalInto at every node.
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
			c.EvalInto(uint64(j), regs)
			for id := range c.Nodes {
				d1 := p1[id]&(1<<uint(j)) != 0
				d0 := p0[id]&(1<<uint(j)) != 0
				if d1 == d0 {
					t.Fatalf("trial %d node %d pattern %d: definite input gave X or contradiction", trial, id, j)
				}
				if d1 != regs[id] {
					t.Fatalf("trial %d node %d pattern %d: dual-rail %v, reference %v", trial, id, j, d1, regs[id])
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

// TestAlwaysPropConePropInto pins the inverter-chain shortcut: a site
// connected to an output through Not/Buf nodes only propagates at every
// vector, AlwaysProp proves it at compile time, and PropInto still
// computes the same all-ones mask when a caller replays anyway.
func TestAlwaysPropConePropInto(t *testing.T) {
	b := circuit.NewBuilder("chain")
	b.Input("a")
	b.Input("b")
	b.Gate(circuit.And, "g", "a", "b")
	b.Gate(circuit.Not, "n1", "g")
	b.Gate(circuit.Buf, "n2", "n1")
	b.Output("n2")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p := CompileAll(c)
	x := NewExec(p, 1)
	x.Eval(0, 1)
	cx := NewConeExec(1)
	dst := make([]uint64, 1)
	for _, name := range []string{"g", "n1", "n2"} {
		n, ok := c.NodeByName(name)
		if !ok {
			t.Fatalf("node %q missing", name)
		}
		cp := compileCone(p, n.ID)
		if !cp.AlwaysProp() {
			t.Fatalf("cone of %q: AlwaysProp = false, want true", name)
		}
		cx.PropInto(cp, x, dst)
		// Bits beyond the universe tail are unmasked by contract (the
		// bitset range stores mask them); compare universe bits only.
		mask := uint64(1)<<uint(c.VectorSpaceSize()) - 1
		if dst[0]&mask != mask {
			t.Fatalf("cone of %q: PropInto %#x, want all-ones %#x", name, dst[0]&mask, mask)
		}
	}
}
