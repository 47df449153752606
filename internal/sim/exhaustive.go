// Package sim computes everything the analysis needs from a circuit by
// exhaustive simulation of its input space U:
//
//   - the exhaustive detection sets T(f) for stuck-at faults, from each
//     line's flip-propagation mask (the vectors at which flipping the line
//     is visible at a primary output), and T(g) for four-way bridging
//     faults in factored form (FactorBridges), and
//   - 3-valued (0/1/X) simulation with fault injection, used by the paper's
//     Definition 2 of distinct detections.
//
// The heavy lifting happens in package engine: circuits are compiled once
// into a levelized instruction program, and every analysis streams U in
// word blocks through that program, accumulating only the per-fault result
// bitsets. Per-node value bitsets over all of U are never materialized.
//
// The paper's analysis "is based on the set U of all the input vectors of
// the circuit" and "can be done only for circuits with small numbers of
// inputs"; RunWorkers enforces the same restriction, though streaming
// moved the practical ceiling from 24 to 28 inputs.
package sim

import (
	"fmt"
	"sync"

	"ndetect/internal/circuit"
	"ndetect/internal/engine"
)

// MaxInputs bounds the exhaustive analysis. The streaming engine keeps only
// O(registers · block) scratch per worker plus the per-fault result
// bitsets, so the bound is set by result memory and simulation time rather
// than by materializing per-node universes; 2^28 vectors is the practical
// ceiling for a laptop-scale run (the benchmarks in the paper all have at
// most 13 circuit inputs). Analyses whose results alone would not fit are
// rejected by CheckResultBudget.
const MaxInputs = 28

// MemoryBudget bounds, in bytes, the bitset memory a single analysis may
// materialize: the per-fault T-sets of a universe construction. It exists
// so that raising MaxInputs cannot silently turn into a multi-gigabyte
// allocation — wide circuits with large fault universes must go through
// the partition package instead.
var MemoryBudget = int64(4) << 30

// CheckResultBudget returns an error when materializing `sets` result
// bitsets over the circuit's vector space would exceed MemoryBudget.
func CheckResultBudget(c *circuit.Circuit, sets int) error {
	bytes := int64(sets) * int64((c.VectorSpaceSize()+7)/8)
	if bytes > MemoryBudget {
		return fmt.Errorf("sim: circuit %q: %d result bitsets over |U| = 2^%d need %d MiB, over the %d MiB budget (raise sim.MemoryBudget or partition the circuit)",
			c.Name, sets, c.NumInputs(), bytes>>20, MemoryBudget>>20)
	}
	return nil
}

// CheckSpaceBudget is CheckResultBudget over an arbitrary test-index
// space: fault models whose T-sets range over something other than U
// itself (the transition model's U×U pair space) bound their result
// memory against the same budget.
func CheckSpaceBudget(name string, space int64, sets int) error {
	bytes := int64(sets) * ((space + 7) / 8)
	if bytes > MemoryBudget {
		return fmt.Errorf("sim: circuit %q: %d result bitsets over a space of %d indices need %d MiB, over the %d MiB budget (raise sim.MemoryBudget)",
			name, sets, space, bytes>>20, MemoryBudget>>20)
	}
	return nil
}

// Exhaustive is a compiled view of a circuit's exhaustive input space: the
// analyses derived from it (StuckAtTSets, goodColumns) stream U in word
// blocks through the compiled program, never materializing per-node value
// bitsets.
type Exhaustive struct {
	Circuit *Circuit

	// Workers bounds the parallelism of every analysis derived from this
	// simulation. 0 means one worker per CPU; 1 reproduces the serial
	// execution order exactly. Output is identical for every value.
	Workers int

	prog *engine.Program

	mu    sync.Mutex
	cones map[int]*engine.ConeProgram
}

// Circuit aliases circuit.Circuit so callers reading this package's
// signatures see the dependency explicitly.
type Circuit = circuit.Circuit

// RunWorkers compiles the circuit for exhaustive streaming analysis with
// a worker count (0 = one per CPU). It validates the input bound and
// lowers the circuit to the engine's levelized instruction program; the
// returned view computes all derived analyses by streaming U in word
// blocks, so no universe-sized memory is touched here.
func RunWorkers(c *Circuit, workers int) (*Exhaustive, error) {
	if m := c.NumInputs(); m > MaxInputs {
		return nil, fmt.Errorf("sim: circuit %q has %d inputs; exhaustive analysis is limited to %d (partition the circuit)", c.Name, m, MaxInputs)
	}
	return &Exhaustive{
		Circuit: c,
		Workers: workers,
		prog:    engine.CompileAll(c),
		cones:   make(map[int]*engine.ConeProgram),
	}, nil
}

// conesFor returns the compiled fanout cones of all requested lines,
// compiling cache misses as one parallel batch with one compiler per
// worker (engine.ConeCompiler reuses its node-count marking arrays across
// an epoch counter, so a warm batch allocates only the programs
// themselves). Compilation is a pure function of (program, line), so the
// cached cones are identical for every worker count and batch order.
func (e *Exhaustive) conesFor(lines []int) []*engine.ConeProgram {
	cps := make([]*engine.ConeProgram, len(lines))
	var missing []int
	e.mu.Lock()
	for i, id := range lines {
		if cp := e.cones[id]; cp != nil {
			cps[i] = cp
		} else {
			missing = append(missing, i)
		}
	}
	e.mu.Unlock()
	if len(missing) == 0 {
		return cps
	}
	ccs := make([]*engine.ConeCompiler, ResolveWorkers(e.Workers))
	ParallelFor(e.Workers, len(missing), func(w, k int) {
		if ccs[w] == nil {
			ccs[w] = e.prog.NewConeCompiler()
		}
		i := missing[k]
		cps[i] = ccs[w].Compile(lines[i])
	})
	e.mu.Lock()
	for _, i := range missing {
		e.cones[lines[i]] = cps[i]
	}
	e.mu.Unlock()
	return cps
}

// universeWords returns the 64-bit word count covering a universe size.
func universeWords(size int) int { return (size + 63) / 64 }
