// Package synth synthesizes the combinational next-state/output logic of an
// encoded STG into a gate-level circuit — the "combinational logic of the
// FSM benchmark" that the paper's analysis runs on.
//
// The flow is classical two-level synthesis: every logic function (each
// primary output and each next-state bit) is collected as a sum-of-products
// cube cover, the cover is reduced by single-cube containment and
// distance-1 merging, and the result is mapped to a shared-inverter
// AND/OR netlist.
package synth

import (
	"fmt"
	"math/bits"
	"sort"
)

// Cube is a product term over up to 64 variables: bit v of Care is set when
// variable v is specified, in which case bit v of Val gives its required
// value. Val bits outside Care must be zero (normalized form).
type Cube struct {
	Care, Val uint64
}

// NewCube parses a cube from a {0,1,-} string where position 0 is variable
// width-1 (MSB-first, matching the circuit input vector convention).
func NewCube(s string) (Cube, error) {
	var c Cube
	w := len(s)
	if w > 64 {
		return c, fmt.Errorf("synth: cube %q wider than 64 variables", s)
	}
	for i := 0; i < w; i++ {
		v := uint(w - 1 - i)
		switch s[i] {
		case '0':
			c.Care |= 1 << v
		case '1':
			c.Care |= 1 << v
			c.Val |= 1 << v
		case '-':
		default:
			return c, fmt.Errorf("synth: bad cube character %q in %q", s[i], s)
		}
	}
	return c, nil
}

// NumLiterals returns the number of specified variables.
func (c Cube) NumLiterals() int { return bits.OnesCount64(c.Care) }

// Covers reports whether every minterm of d is a minterm of c.
func (c Cube) Covers(d Cube) bool {
	// c covers d iff c's specified variables are a subset of d's and agree.
	return c.Care&^d.Care == 0 && d.Val&c.Care == c.Val
}

// TryMerge merges two cubes that have identical care sets and differ in
// exactly one value bit (the classical Quine–McCluskey adjacency step).
func (c Cube) TryMerge(d Cube) (Cube, bool) {
	if c.Care != d.Care {
		return Cube{}, false
	}
	diff := c.Val ^ d.Val
	if bits.OnesCount64(diff) != 1 {
		return Cube{}, false
	}
	return Cube{Care: c.Care &^ diff, Val: c.Val &^ diff}, true
}

// Cover is a sum-of-products: a disjunction of cubes.
type Cover []Cube

// Reduce returns an equivalent, usually smaller cover: duplicate and
// contained cubes are dropped and distance-1 adjacent cubes are merged,
// iterating to a fixpoint. Reduce preserves the cover's onset exactly (it
// never expands into the offset), which tests verify exhaustively.
func (cv Cover) Reduce() Cover {
	cur := append(Cover(nil), cv...)
	for {
		changed := false

		// Containment and duplicate removal.
		sort.Slice(cur, func(i, j int) bool {
			if cur[i].NumLiterals() != cur[j].NumLiterals() {
				return cur[i].NumLiterals() < cur[j].NumLiterals()
			}
			if cur[i].Care != cur[j].Care {
				return cur[i].Care < cur[j].Care
			}
			return cur[i].Val < cur[j].Val
		})
		kept := cur[:0]
		for _, c := range cur {
			covered := false
			for _, k := range kept {
				if k.Covers(c) {
					covered = true
					break
				}
			}
			if !covered {
				kept = append(kept, c)
			} else {
				changed = true
			}
		}
		cur = kept

		// Distance-1 merging. Merged pairs are replaced by their union;
		// the next containment pass cleans up.
		merged := make([]bool, len(cur))
		var adds Cover
		for i := 0; i < len(cur); i++ {
			if merged[i] {
				continue
			}
			for j := i + 1; j < len(cur); j++ {
				if merged[j] {
					continue
				}
				if u, ok := cur[i].TryMerge(cur[j]); ok {
					merged[i], merged[j] = true, true
					adds = append(adds, u)
					changed = true
					break
				}
			}
		}
		if len(adds) > 0 {
			next := adds
			for i, c := range cur {
				if !merged[i] {
					next = append(next, c)
				}
			}
			cur = next
		}
		if !changed {
			return cur
		}
	}
}
