package ndetect

import (
	"math"
	"math/bits"
	"sort"

	"ndetect/internal/bitset"
	"ndetect/internal/sim"
)

// Unbounded is the nmin value of an untargeted fault no n-detection test set
// is ever guaranteed to detect (F(g) is empty: no target fault's test set
// overlaps T(g)). No finite n suffices for such faults.
const Unbounded = math.MaxInt

// NMinPair computes nmin(g,f) = N(f) − M(g,f) + 1, the smallest n for which
// detecting f n times forces the test set to hit T(g). It returns Unbounded
// when the test sets do not intersect (f ∉ F(g)).
func NMinPair(g, f Fault) int {
	return nminPair(g.Set(), f.Set())
}

func nminPair(g, f *bitset.Set) int {
	m := f.IntersectionCount(g)
	if m == 0 {
		return Unbounded
	}
	return f.Count() - m + 1
}

// NMin computes nmin(g) = min over f ∈ F(g) of nmin(g,f).
func NMin(g Fault, targets []Fault) int {
	gs := g.Set()
	best := Unbounded
	for _, f := range targets {
		if v := nminPair(gs, f.Set()); v < best {
			best = v
		}
	}
	return best
}

// PairContribution reports one target fault's role in the worst-case
// analysis of an untargeted fault, mirroring the columns of the paper's
// Table 1.
type PairContribution struct {
	TargetIndex int
	Name        string
	N           int // N(f)
	M           int // M(g,f)
	NMin        int // nmin(g,f)
}

// ContributingFaults returns, for one untargeted fault g, the set F(g) of
// target faults whose test sets overlap T(g), with their nmin(g,f) values —
// the data of the paper's Table 1.
func ContributingFaults(g Fault, targets []Fault) []PairContribution {
	gs := g.Set()
	var out []PairContribution
	for i, f := range targets {
		fs := f.Set()
		m := fs.IntersectionCount(gs)
		if m == 0 {
			continue
		}
		n := fs.Count()
		out = append(out, PairContribution{
			TargetIndex: i,
			Name:        f.Name,
			N:           n,
			M:           m,
			NMin:        n - m + 1,
		})
	}
	return out
}

// WorstCaseResult holds nmin(g) for every untargeted fault of a universe.
type WorstCaseResult struct {
	// NMin[j] is nmin for Untargeted[j]; Unbounded if no guarantee exists.
	NMin []int
}

// WorstCaseWorkers runs the Section 2 analysis over the whole universe
// with a worker bound: 0 means one worker per CPU, 1 the exact serial
// order. The result is identical for every worker count, and so is the
// work done; only wall-clock time changes (DESIGN.md §5 — the knob must
// be threaded, not re-resolved, so callers that split a budget across
// concurrent circuits or parts stay within it).
//
// The analysis is output-sensitive but exact (DESIGN.md §1). Each pair is
// evaluated as nmin(g,f) − 1 = |T(f) − T(g)| over a sparse slab of the
// target T-sets (targetSlab), which holds only each target's nonzero
// words, and stops reading once that count shows the pair cannot lower
// the best value found. Targets are visited in ascending N(f) until the
// lower bound nmin(g,f) ≥ N(f) + 1 − min(N(f), |T(g)|) reaches the best
// value. The untargeted faults fan out in fixed blocks of worstCaseBlock
// consecutive indices; within a block, the last few distinct minimising
// targets are evaluated first (witness seeds), so most faults stop at a
// seed that already meets the bound nmin(g) ≥ 1. A seed is an ordinary
// candidate, so it can only tighten best toward the true minimum, never
// past it. A factored T(g) is written once per fault into a per-worker
// buffer (Fault.Words), so the pair kernel reads one word per index.
//
// A universe that keeps its factors (AssembleUniverse) first decides
// nmin(g) = 1 from them: with T(g) = S ∩ D, some target has
// ∅ ≠ T(f) ⊆ T(g) exactly when In(S) ∩ In(D) ≠ ∅ (unitRows). Such a
// fault skips the words, the seeds and the scan.
func WorstCaseWorkers(u *Universe, workers int) *WorstCaseResult {
	r := &WorstCaseResult{NMin: make([]int, len(u.Untargeted))}
	slab := newTargetSlab(u.Targets)
	units := newUnitRows(slab, u, workers)
	n := len(u.Untargeted)
	blocks := (n + worstCaseBlock - 1) / worstCaseBlock
	bufs := make([][]uint64, sim.ResolveWorkers(workers)) // per worker, for a factored T(g)
	sim.ParallelFor(workers, blocks, func(w, b int) {
		if bufs[w] == nil {
			bufs[w] = make([]uint64, (u.Size+63)/64)
		}
		lo := b * worstCaseBlock
		hi := min(lo+worstCaseBlock, n)
		slab.nminBlock(u.Untargeted[lo:hi], r.NMin[lo:hi], bufs[w], units, lo)
	})
	return r
}

// worstCaseBlock is WorstCaseWorkers' fan-out unit, in untargeted faults.
// Blocks are fixed by index, so the seeds each fault sees — and with them
// the work done — do not depend on the worker count.
const worstCaseBlock = 64

// maxSeeds bounds a block's witness-seed list.
const maxSeeds = 8

// targetSlab is the target T-sets in sparse form, in ascending N(f) (ties
// in target order). Slab entry k has N(f) = n[k] and its nonzero words
// words[off[k]:off[k+1]], at word indices idx[off[k]:off[k+1]]. Targets
// with an empty T(f) are left out: they overlap no T(g). int32 indices
// suffice: a T-set of 2^31 words is far over sim.MemoryBudget.
type targetSlab struct {
	n     []int
	off   []int
	words []uint64
	idx   []int32
}

func newTargetSlab(targets []Fault) *targetSlab {
	var order []int
	nf := make([]int, len(targets))
	nz := 0
	for i, f := range targets {
		if nf[i] = f.T.Count(); nf[i] == 0 {
			continue
		}
		order = append(order, i)
		for _, w := range f.T.Words() {
			if w != 0 {
				nz++
			}
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return nf[order[a]] < nf[order[b]] })
	s := &targetSlab{
		n:     make([]int, len(order)),
		off:   make([]int, len(order)+1),
		words: make([]uint64, 0, nz),
		idx:   make([]int32, 0, nz),
	}
	for k, i := range order {
		s.n[k] = nf[i]
		for wi, w := range targets[i].T.Words() {
			if w != 0 {
				s.words = append(s.words, w)
				s.idx = append(s.idx, int32(wi))
			}
		}
		s.off[k+1] = len(s.words)
	}
	return s
}

// entry returns slab entry k's nonzero words and their word indices.
func (s *targetSlab) entry(k int) ([]uint64, []int32) {
	ws := s.words[s.off[k]:s.off[k+1]]
	// Equal lengths let the compiler drop the index bounds check.
	return ws, s.idx[s.off[k] : s.off[k]+len(ws)]
}

// pair returns nmin(g,f) for slab entry k, given T(g)'s words, and true
// when f ∈ F(g) and nmin(g,f) < best. It counts |T(f) − T(g)| =
// N(f) − M(g,f) and stops reading once the count reaches
// min(best − 1, N(f)): from there the pair cannot lower best, or T(f)
// misses T(g) entirely (DESIGN.md §1).
func (s *targetSlab) pair(k int, g []uint64, best int) (int, bool) {
	ws, is := s.entry(k)
	lim := min(best-1, s.n[k])
	d := 0
	for i, w := range ws {
		if d += bits.OnesCount64(w &^ g[is[i]]); d >= lim {
			return 0, false
		}
	}
	return d + 1, true
}

// nminBlock writes nmin(g) for one block of consecutive untargeted faults,
// the first at index lo, into out, with buf as the scratch for factored
// T-sets; units, when non-nil, decides the faults with nmin(g) = 1 first.
// seeds holds the slab entries that minimised the block's most recent
// scanned faults, most recent first.
func (s *targetSlab) nminBlock(block []Fault, out []int, buf []uint64, units *unitRows, lo int) {
	var seeds [maxSeeds]int
	ns := 0
	for j := range block {
		if units.unit(lo + j) {
			out[j] = 1
			continue
		}
		gw := block[j].Words(buf)
		best, arg := Unbounded, -1
		for _, k := range seeds[:ns] {
			if best == 1 {
				break // nmin(g) ≥ 1: no candidate can do better
			}
			if v, ok := s.pair(k, gw, best); ok {
				best, arg = v, k
			}
		}
		if best > 1 {
			ng := 0
			for _, w := range gw {
				ng += bits.OnesCount64(w)
			}
			for k, nf := range s.n {
				if nf+1-min(nf, ng) >= best {
					break // all later targets have larger N(f), hence larger bounds
				}
				if v, ok := s.pair(k, gw, best); ok {
					best, arg = v, k
				}
			}
		}
		out[j] = best
		if arg < 0 {
			continue
		}
		// Move arg to the front of the seeds, dropping the oldest when full.
		p := 0
		for p < ns && seeds[p] != arg {
			p++
		}
		if p == ns {
			if ns < maxSeeds {
				ns++
			} else {
				p = maxSeeds - 1
			}
		}
		copy(seeds[1:p+1], seeds[:p])
		seeds[0] = arg
	}
}

// unitRows decides nmin(g) = 1 for the faults of a universe that keeps
// its factors, T(g) = S ∩ D, without reading T(g). For a set X of
// vectors, In(X) is the set of slab entries f with T(f) ⊆ X; every slab
// entry has T(f) ≠ ∅. nmin(g) = 1 exactly when some f has ∅ ≠ T(f) and
// |T(f) − T(g)| = 0, that is T(f) ⊆ S and T(f) ⊆ D: exactly when
// In(S) ∩ In(D) ≠ ∅ (DESIGN.md §1). Each row is one such In(X) as a
// bitset over the slab: first every victim target S that occurs, in
// target order, then every column set in sim.Columns.Set order.
type unitRows struct {
	words          int      // words per row
	rows           []uint64 // row i is rows[i*words : (i+1)*words]
	rowOf          []int32  // target index → its victim row
	col0           int      // the row of column set 0
	victim, column []int32  // the universe's factor indices
}

// newUnitRows builds the In() rows over slab s of a universe that keeps
// its factors, and returns nil for any other. It fans out one task per
// victim target and one per column, each filling only its own rows, so
// neither the rows nor the work depend on the worker count.
func newUnitRows(s *targetSlab, u *Universe, workers int) *unitRows {
	if u.cols == nil {
		return nil
	}
	r := &unitRows{words: (len(s.n) + 63) / 64, rowOf: make([]int32, len(u.Targets)), victim: u.victim, column: u.column}
	isVictim := make([]bool, len(u.Targets))
	for _, k := range u.victim {
		isVictim[k] = true
	}
	var victims []int
	for k, ok := range isVictim {
		if ok {
			r.rowOf[k] = int32(len(victims))
			victims = append(victims, k)
		}
	}
	nC := len(u.cols.Nodes)
	r.col0 = len(victims)
	r.rows = make([]uint64, (r.col0+2*nC)*r.words)
	sim.ParallelFor(workers, r.col0+nC, func(_, t int) {
		if t < r.col0 {
			x := u.Targets[victims[t]].T
			s.inRow(r.row(t), x.Words(), x.Count())
			return
		}
		c := t - r.col0
		one := u.cols.One[c]
		s.columnRows(r.row(r.col0+c), r.row(r.col0+nC+c), one.Words(), one.Count(), u.Size)
	})
	return r
}

func (r *unitRows) row(i int) []uint64 { return r.rows[i*r.words : (i+1)*r.words] }

// unit reports whether untargeted fault j has nmin(g) = 1 by its factors;
// it is false on a nil r.
func (r *unitRows) unit(j int) bool {
	if r == nil {
		return false
	}
	a, b := r.row(int(r.rowOf[r.victim[j]])), r.row(r.col0+int(r.column[j]))
	for i, w := range a {
		if w&b[i] != 0 {
			return true
		}
	}
	return false
}

// inRow sets row bit k for every slab entry k with T(f) ⊆ X, given X's
// words and |X|. T(f) ⊆ X needs N(f) ≤ |X|, and N(f) ascends along the
// slab, so the scan stops at the first larger entry.
func (s *targetSlab) inRow(row, x []uint64, nx int) {
next:
	for k, nf := range s.n {
		if nf > nx {
			return
		}
		ws, is := s.entry(k)
		for i, w := range ws {
			if w&^x[is[i]] != 0 {
				continue next
			}
		}
		row[k/64] |= 1 << (k % 64)
	}
}

// columnRows sets the rows In(One) and In(Zero) of one column from a
// single pass over its One words, given |One| and |U|: T(f) ⊆ Zero
// exactly when T(f) ∩ One = ∅, since T(f) ⊆ U. As in inRow, each
// polarity needs N(f) at most its own count.
func (s *targetSlab) columnRows(inOne, inZero, one []uint64, nOne, size int) {
	for k, nf := range s.n {
		// The bits of T(f) − One and T(f) ∩ One read so far; a polarity
		// whose count is below N(f) starts out failed.
		var outside, inside uint64
		if nf > nOne {
			outside = 1
		}
		if nf > size-nOne {
			inside = 1
		}
		if outside != 0 && inside != 0 {
			return
		}
		ws, is := s.entry(k)
		for i, w := range ws {
			outside |= w &^ one[is[i]]
			inside |= w & one[is[i]]
			if outside != 0 && inside != 0 {
				break
			}
		}
		if outside == 0 {
			inOne[k/64] |= 1 << (k % 64)
		}
		if inside == 0 {
			inZero[k/64] |= 1 << (k % 64)
		}
	}
}

// CoverageAt returns the fraction (0..1) of untargeted faults with
// nmin(g) ≤ n — the quantity tabulated (as a percentage) in Table 2.
func (r *WorstCaseResult) CoverageAt(n int) float64 {
	if len(r.NMin) == 0 {
		return 1
	}
	c := 0
	for _, v := range r.NMin {
		if v <= n {
			c++
		}
	}
	return float64(c) / float64(len(r.NMin))
}

// CountAtLeast returns the number of untargeted faults with nmin(g) ≥ n —
// the quantity tabulated in Table 3. Unbounded faults are included.
func (r *WorstCaseResult) CountAtLeast(n int) int {
	c := 0
	for _, v := range r.NMin {
		if v >= n {
			c++
		}
	}
	return c
}

// IndicesAtLeast returns the untargeted fault indices with nmin(g) ≥ n, in
// index order — Tables 5 and 6 run the average-case analysis exactly on
// this subset (n = 11 there).
func (r *WorstCaseResult) IndicesAtLeast(n int) []int {
	var out []int
	for j, v := range r.NMin {
		if v >= n {
			out = append(out, j)
		}
	}
	return out
}

// MaxFinite returns the largest finite nmin value, or 0 if none.
func (r *WorstCaseResult) MaxFinite() int {
	best := 0
	for _, v := range r.NMin {
		if v != Unbounded && v > best {
			best = v
		}
	}
	return best
}

// Histogram returns the sorted distinct finite nmin values ≥ from, with
// their fault counts — the data behind the paper's Figure 2 (which plots
// the distribution of nmin(g) for faults with nmin(g) ≥ 100).
func (r *WorstCaseResult) Histogram(from int) (values []int, counts []int) {
	h := make(map[int]int)
	for _, v := range r.NMin {
		if v != Unbounded && v >= from {
			h[v]++
		}
	}
	values = make([]int, 0, len(h))
	for v := range h {
		values = append(values, v)
	}
	sort.Ints(values)
	counts = make([]int, len(values))
	for i, v := range values {
		counts[i] = h[v]
	}
	return values, counts
}
