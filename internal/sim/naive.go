package sim

import (
	"ndetect/internal/bitset"
	"ndetect/internal/circuit"
	"ndetect/internal/fault"
)

// The naive simulator recomputes every fault at every vector with
// circuit.EvalInto, the per-vector reference evaluator, which shares
// nothing with the engine's lowering. It exists as (a) the implementation
// the bit-parallel paths are cross-checked against in tests, and (b) the
// baseline of the ablation benchmarks BenchmarkExhaustiveNaive and
// BenchmarkTSetsPerFault.

// NaiveStuckAtTSet computes T(f) by evaluating every vector twice: the
// good machine, and the faulty machine with the fault node held at its
// stuck value.
func NaiveStuckAtTSet(c *circuit.Circuit, f fault.StuckAt) *bitset.Set {
	size := c.VectorSpaceSize()
	t := bitset.New(size)
	good := make([]bool, c.NumNodes())
	bad := make([]bool, c.NumNodes())
	for v := 0; v < size; v++ {
		c.EvalInto(uint64(v), good)
		if good[f.Node] == f.Value {
			continue // not activated
		}
		c.EvalInto(uint64(v), bad, circuit.Force{Node: f.Node, Value: f.Value})
		for _, o := range c.Outputs {
			if good[o] != bad[o] {
				t.Add(v)
				break
			}
		}
	}
	return t
}

// NaiveBridgeTSet computes T(g) for a dominance bridge by per-vector
// evaluation.
func NaiveBridgeTSet(c *circuit.Circuit, g fault.Bridge) *bitset.Set {
	return NaiveBridgeTSets(c, []fault.Bridge{g})[0]
}

// NaiveBridgeTSets computes T(g) for every given dominance bridge by
// per-vector evaluation: the good machine once per vector, then, at each
// vector where a bridge is activated, the machine with its victim held at
// the dominant's value. Bridges with the same victim and value share that
// forced run; nothing else is shared.
func NaiveBridgeTSets(c *circuit.Circuit, gs []fault.Bridge) []*bitset.Set {
	size := c.VectorSpaceSize()
	out := bitset.NewBatch(size, len(gs))
	good := make([]bool, c.NumNodes())
	bad := make([]bool, c.NumNodes())
	ranAt := make([]int, 2*c.NumNodes()) // 1 + the vector of a site's last forced run
	differs := make([]bool, 2*c.NumNodes())
	for v := 0; v < size; v++ {
		c.EvalInto(uint64(v), good)
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
				c.EvalInto(uint64(v), bad, circuit.Force{Node: g.Victim, Value: g.Value})
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

// NaiveExhaustive computes all node values with per-vector evaluation; the
// ablation baseline for BenchmarkExhaustiveNaive.
func NaiveExhaustive(c *circuit.Circuit) []*bitset.Set {
	size := c.VectorSpaceSize()
	out := make([]*bitset.Set, c.NumNodes())
	for i := range out {
		out[i] = bitset.New(size)
	}
	vals := make([]bool, c.NumNodes())
	for v := 0; v < size; v++ {
		c.EvalInto(uint64(v), vals)
		for id, b := range vals {
			if b {
				out[id].Add(v)
			}
		}
	}
	return out
}
