package sim

import (
	"ndetect/internal/bitset"
	"ndetect/internal/circuit"
	"ndetect/internal/engine"
	"ndetect/internal/fault"
)

// The naive simulator recomputes every fault at every vector with width-1
// (scalar) executions of the compiled program — the same instruction
// stream the word-block interpreter runs, one vector at a time. It exists
// as (a) the implementation the bit-parallel paths are cross-checked
// against in tests (together with circuit.Eval, the retained non-engine
// reference), and (b) the baseline of the ablation benchmark
// BenchmarkTSetsPerFault.

// NaiveStuckAtTSet computes T(f) by scalar simulation of every vector:
// the good machine from the compiled program, the faulty machine from the
// same program with the fault node's chain skipped and its register forced.
func NaiveStuckAtTSet(c *circuit.Circuit, f fault.StuckAt) *bitset.Set {
	prog := engine.CompileAll(c)
	size := c.VectorSpaceSize()
	t := bitset.New(size)
	good := make([]bool, prog.NumRegs)
	bad := make([]bool, prog.NumRegs)
	for v := 0; v < size; v++ {
		prog.EvalScalar(uint64(v), good)
		if good[f.Node] == f.Value {
			continue // not activated
		}
		prog.EvalScalarForced(uint64(v), f.Node, f.Value, bad)
		for _, o := range c.Outputs {
			if good[o] != bad[o] {
				t.Add(v)
				break
			}
		}
	}
	return t
}

// NaiveBridgeTSet computes T(g) for a dominance bridge by scalar simulation.
func NaiveBridgeTSet(c *circuit.Circuit, g fault.Bridge) *bitset.Set {
	return NaiveBridgeTSets(c, []fault.Bridge{g})[0]
}

// NaiveBridgeTSets computes T(g) for every given dominance bridge by scalar
// simulation of every vector: the good machine once per vector, then, at
// each vector where a bridge is activated, the machine with its victim
// forced to the dominant's value. Bridges with the same victim and value
// share that forced run; nothing else is shared.
func NaiveBridgeTSets(c *circuit.Circuit, gs []fault.Bridge) []*bitset.Set {
	prog := engine.CompileAll(c)
	size := c.VectorSpaceSize()
	out := bitset.NewBatch(size, len(gs))
	good := make([]bool, prog.NumRegs)
	bad := make([]bool, prog.NumRegs)
	ranAt := make([]int, 2*c.NumNodes()) // 1 + the vector of a site's last forced run
	differs := make([]bool, 2*c.NumNodes())
	for v := 0; v < size; v++ {
		prog.EvalScalar(uint64(v), good)
		for i, g := range gs {
			if good[g.Dominant] != g.Value || good[g.Victim] == g.Value {
				continue // not activated
			}
			site := 2 * g.Victim
			if g.Value {
				site++
			}
			if ranAt[site] != v+1 {
				ranAt[site] = v + 1
				prog.EvalScalarForced(uint64(v), g.Victim, g.Value, bad)
				differs[site] = false
				for _, o := range c.Outputs {
					if good[o] != bad[o] {
						differs[site] = true
						break
					}
				}
			}
			if differs[site] {
				out[i].Add(v)
			}
		}
	}
	return out
}

// NaiveExhaustive computes all node values with per-vector scalar
// evaluation; the ablation baseline for BenchmarkExhaustiveNaive.
func NaiveExhaustive(c *circuit.Circuit) []*bitset.Set {
	prog := engine.CompileAll(c)
	size := c.VectorSpaceSize()
	out := make([]*bitset.Set, c.NumNodes())
	for i := range out {
		out[i] = bitset.New(size)
	}
	vals := make([]bool, prog.NumRegs)
	for v := 0; v < size; v++ {
		prog.EvalScalar(uint64(v), vals)
		for id, b := range vals {
			if b {
				out[id].Add(v)
			}
		}
	}
	return out
}
