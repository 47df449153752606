// Package bench provides the benchmark machines the experiments run on.
//
// The paper evaluates on the combinational logic of MCNC FSM benchmarks
// (plus four machines — dvram, fetch, log, rie — that were never publicly
// distributed). This environment ships no benchmark data, so the suite
// consists of:
//
//   - hand-written machines with meaningful semantics (counters, direction
//     detectors, small controllers) for the tiny circuits, and
//   - deterministic synthetic surrogates, generated from a per-name seed,
//     matching the published primary-input / primary-output / state counts
//     of every MCNC circuit used in Tables 2-6.
//
// DESIGN.md §4 documents this substitution and how to read surrogate
// numbers against the published rows (cmd/paper -compare prints both).
package bench

import (
	"fmt"
	"math/rand"

	"ndetect/internal/kiss"
)

// genParams controls the synthetic STG generator.
type genParams struct {
	Inputs  int
	Outputs int
	States  int

	// SplitProb is the probability of splitting an input cube while
	// building a state's transition tree; higher values give more, narrower
	// cubes (more product terms after synthesis).
	SplitProb float64
	// DropProb is the probability of leaving a leaf cube unspecified.
	// Unspecified entries synthesize to constant-0 rows, which injects the
	// redundancy responsible for the heavy nmin tails the paper observes on
	// its larger circuits.
	DropProb float64
	// OutputDashProb is the probability that an output bit of a transition
	// is '-' (don't care, resolved to 0 by synthesis).
	OutputDashProb float64
}

// generate builds a deterministic random STG. The same (name, seed, params)
// always yields the same machine.
func generate(name string, seed int64, p genParams) (*kiss.STG, error) {
	if p.Inputs < 1 || p.Outputs <= 0 || p.States <= 0 {
		return nil, fmt.Errorf("bench: bad generator params for %s", name)
	}
	rng := rand.New(rand.NewSource(seed))

	stateName := func(i int) string { return fmt.Sprintf("s%d", i) }

	var trs []kiss.Transition
	for s := 0; s < p.States; s++ {
		cubes := splitCubes(rng, p.Inputs, p.SplitProb)
		for ci, cube := range cubes {
			// Drop leaves probabilistically, but keep at least the first
			// cube of every state so all published states exist in the
			// generated machine.
			if ci > 0 && rng.Float64() < p.DropProb {
				continue // unspecified entry
			}
			to := rng.Intn(p.States)
			// Bias toward a connected machine: occasionally jump to the
			// successor ring to avoid absorbing states dominating.
			if rng.Float64() < 0.3 {
				to = (s + 1) % p.States
			}
			out := make([]byte, p.Outputs)
			for k := range out {
				switch {
				case rng.Float64() < p.OutputDashProb:
					out[k] = '-'
				case rng.Float64() < 0.5:
					out[k] = '1'
				default:
					out[k] = '0'
				}
			}
			trs = append(trs, kiss.Transition{
				Input:  cube,
				From:   stateName(s),
				To:     stateName(to),
				Output: string(out),
			})
		}
	}
	if len(trs) == 0 {
		return nil, fmt.Errorf("bench: generator produced no transitions for %s", name)
	}

	src := renderKISS(p, trs)
	m, err := kiss.ParseString(name, src)
	if err != nil {
		return nil, fmt.Errorf("bench: generated %s does not parse: %w", name, err)
	}
	if m.NumStates() != p.States {
		return nil, fmt.Errorf("bench: generated %s has %d states, want %d", name, m.NumStates(), p.States)
	}
	return m, nil
}

// splitCubes recursively partitions the input space into disjoint cubes:
// starting from the all-don't-care cube, each cube is either emitted or
// split on a random unspecified variable. The result always has at least
// one cube, and all cubes are pairwise disjoint, so any assignment of next
// states is deterministic.
func splitCubes(rng *rand.Rand, inputs int, splitProb float64) []string {
	if inputs == 0 {
		return []string{""}
	}
	var out []string
	var rec func(cube []byte, free int, depth int)
	rec = func(cube []byte, free int, depth int) {
		if free > 0 && rng.Float64() < splitProb/float64(depth) {
			// Pick a random unspecified position.
			k := rng.Intn(free)
			pos := -1
			for i, c := range cube {
				if c == '-' {
					if k == 0 {
						pos = i
						break
					}
					k--
				}
			}
			c0 := append([]byte(nil), cube...)
			c0[pos] = '0'
			c1 := append([]byte(nil), cube...)
			c1[pos] = '1'
			rec(c0, free-1, depth+1)
			rec(c1, free-1, depth+1)
			return
		}
		out = append(out, string(cube))
	}
	full := make([]byte, inputs)
	for i := range full {
		full[i] = '-'
	}
	rec(full, inputs, 1)
	return out
}

// renderKISS serializes transitions into KISS2 text. The first transition's
// From becomes the reset state; we force s0 to appear first so the reset is
// stable across parameter tweaks.
func renderKISS(p genParams, trs []kiss.Transition) string {
	src := fmt.Sprintf(".i %d\n.o %d\n.r s0\n", p.Inputs, p.Outputs)
	for _, tr := range trs {
		src += fmt.Sprintf("%s %s %s %s\n", tr.Input, tr.From, tr.To, tr.Output)
	}
	src += ".e\n"
	return src
}
