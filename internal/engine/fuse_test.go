package engine

import (
	"math/rand"
	"testing"

	"ndetect/internal/circuit"
)

// conesEqualUnfused compares, for every node of c and over every block
// width in widths, the fused cone's propagation mask against the cone
// compiled with fusion disabled. The fusion pass promises byte-identical
// replayed values — only the instruction encoding may differ.
func conesEqualUnfused(t *testing.T, c *circuit.Circuit, widths []int) {
	t.Helper()
	p := CompileAll(c)
	fused := p.NewConeCompiler()
	plain := p.NewConeCompiler()
	plain.SetFusion(false)

	size := c.VectorSpaceSize()
	nWords := (size + 63) / 64
	for id := range c.Nodes {
		cpF := fused.Compile([]int{id})
		cpP := plain.Compile([]int{id})
		if len(cpF.Instrs) > len(cpP.Instrs) {
			t.Fatalf("node %d: fusion grew the program: %d -> %d instructions",
				id, len(cpP.Instrs), len(cpF.Instrs))
		}
		if cpF.AlwaysProp() != cpP.AlwaysProp() {
			t.Fatalf("node %d: AlwaysProp %v fused, %v unfused", id, cpF.AlwaysProp(), cpP.AlwaysProp())
		}
		for _, bw := range widths {
			bw = min(bw, nWords)
			x := NewExec(p, bw)
			cxF := NewConeExec(bw)
			cxP := NewConeExec(bw)
			dstF := make([]uint64, bw)
			dstP := make([]uint64, bw)
			for lo := 0; lo < nWords; lo += bw {
				hi := min(lo+bw, nWords)
				x.Eval(lo, hi)
				cxF.PropInto(cpF, x, dstF)
				cxP.PropInto(cpP, x, dstP)
				for w := 0; w < hi-lo; w++ {
					if dstF[w] != dstP[w] {
						t.Fatalf("node %d block [%d,%d) word %d: fused %#x, unfused %#x",
							id, lo, hi, w, dstF[w], dstP[w])
					}
				}
			}
		}
	}
}

// TestConeFusionMatchesUnfused is the fusion half of the equivalence suite:
// on random circuits, every single-site cone replayed through the fused
// interpreter produces the same propagation words as the pre-fusion
// encoding, at a one-word block, a full tile, and a tile-plus-tail width.
func TestConeFusionMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	widths := []int{1, tileWords, tileWords + 3}
	for trial := 0; trial < 12; trial++ {
		c := randomCircuit(t, rng, 7+rng.Intn(4), 10+rng.Intn(25))
		conesEqualUnfused(t, c, widths)
	}
}

// FuzzConeFusion cross-checks the fusion pass on fuzzer-chosen random
// circuits: any divergence between the fused and unfused cone replay is a
// fusion bug by definition.
func FuzzConeFusion(f *testing.F) {
	f.Add(int64(1), 6, 12)
	f.Add(int64(42), 9, 30)
	f.Add(int64(7), 4, 25)
	f.Fuzz(func(t *testing.T, seed int64, inputs, gates int) {
		// randomCircuit declares up to 3 outputs named g{gates-1-i} and
		// draws at least 2 distinct fanins for its first gate, so it needs
		// at least 3 gates and 2 inputs to be well-formed.
		if inputs < 2 || inputs > 9 || gates < 3 || gates > 40 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(t, rng, inputs, gates)
		conesEqualUnfused(t, c, []int{tileWords + 1})
	})
}

// TestFusedProgramWidthsAgree pins the three-width contract for fused
// opcodes at the whole-program level: the output-directed Compile runs the
// fusion pass, so its scalar interpreter (EvalScalar), word-block
// interpreter (Eval), and the unfused CompileAll reference must agree at
// every vector.
func TestFusedProgramWidthsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		c := randomCircuit(t, rng, 7+rng.Intn(3), 12+rng.Intn(25))
		full := CompileAll(c)
		lean := Compile(c, nil)

		size := c.VectorSpaceSize()
		nWords := (size + 63) / 64
		bw := tileWords + 2 // exercises both the tile loop and the word tail
		xf := NewExec(full, bw)
		xl := NewExec(lean, bw)
		fregs := make([]bool, full.NumRegs)
		lregs := make([]bool, lean.NumRegs)
		for lo := 0; lo < nWords; lo += bw {
			hi := min(lo+bw, nWords)
			xf.Eval(lo, hi)
			xl.Eval(lo, hi)
			for i := range c.Outputs {
				fw := xf.Reg(full.OutputReg[i])
				lw := xl.Reg(lean.OutputReg[i])
				for w := 0; w < hi-lo; w++ {
					if fw[w] != lw[w] {
						t.Fatalf("trial %d output %d word %d: fused block %#x, reference %#x",
							trial, i, lo+w, lw[w], fw[w])
					}
				}
			}
			for w := 0; w < hi-lo; w++ {
				for b := 0; b < 64; b++ {
					v := (lo+w)*64 + b
					if v >= size {
						break
					}
					full.EvalScalar(uint64(v), fregs)
					lean.EvalScalar(uint64(v), lregs)
					for i := range c.Outputs {
						if fregs[full.OutputReg[i]] != lregs[lean.OutputReg[i]] {
							t.Fatalf("trial %d output %d v=%d: fused scalar disagrees", trial, i, v)
						}
					}
				}
			}
		}
	}
}

// TestSelfSeedConeRejectsForced pins the self-seed safety contract: a
// single-site cone embeds its own complement as the first instruction, so
// forcing a constant onto the site would be silently overwritten — the
// forced-replay entry points must panic instead.
func TestSelfSeedConeRejectsForced(t *testing.T) {
	b := circuit.NewBuilder("selfseed")
	b.Input("a")
	b.Input("b")
	b.Gate(circuit.And, "g", "a", "b")
	b.Output("g")
	c, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	p := CompileAll(c)
	cp := compileCone(p, c.Outputs[0])
	if !cp.selfSeed {
		t.Fatal("single-site cone is not self-seeded")
	}
	x := NewExec(p, 1)
	x.Eval(0, 1)
	cx := NewConeExec(1)
	defer func() {
		if recover() == nil {
			t.Fatal("forced replay on a self-seeded cone did not panic")
		}
	}()
	cx.PropForcedInto(cp, x, []bool{true}, make([]uint64, 1))
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
