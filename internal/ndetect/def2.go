package ndetect

import (
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

	"ndetect/internal/fault"
	"ndetect/internal/sim"
)

// def2State tracks, per target fault, a greedily maintained set of tests
// counted as distinct detections under Definition 2.
//
// Maintenance is lazy and capped: the distinct set of a fault is only grown
// when the fault is examined and found short of the needed count, by
// processing the test set's vectors in insertion order from a per-fault
// cursor. A test joins the set if it detects the fault and is pairwise
// distinct from every test already counted. Because tests are processed in
// the same (insertion) order regardless of when the cursor advances, the
// lazy evaluation reaches the same decisions as an eager one, while faults
// that already satisfy the current n perform no similarity checks at all —
// the difference between hours and seconds at paper-scale K.
type def2State struct {
	checker  DistinctChecker
	distinct [][]int // per target fault: tests counted as distinct detections
	cursor   []int   // per target fault: vectors of Tk processed so far
	cands    []int   // pickDistinct's candidate list, reused across picks
}

func newDef2State(numTargets int, checker DistinctChecker) *def2State {
	return &def2State{
		checker:  checker,
		distinct: make([][]int, numTargets),
		cursor:   make([]int, numTargets),
	}
}

// reset empties the state for the next test set, keeping its storage.
func (s *def2State) reset() {
	for i := range s.distinct {
		s.distinct[i] = s.distinct[i][:0]
	}
	clear(s.cursor)
}

// countUpTo advances fault i's cursor until its distinct set reaches `need`
// members or the test set is exhausted, and returns the (possibly capped)
// count. The first test of T(f) joins without asking the checker.
func (s *def2State) countUpTo(i, need int, f *Fault, tk *TestSet) int {
	d := s.distinct[i]
	vectors := tk.Vectors()
	for s.cursor[i] < len(vectors) && len(d) < need {
		v := vectors[s.cursor[i]]
		s.cursor[i]++
		if f.T.Contains(v) && (len(d) == 0 || s.checker.DistinctAll(i, v, d)) {
			d = append(d, v)
		}
	}
	s.distinct[i] = d
	return len(d)
}

// pickScanCap bounds how many randomly drawn candidates pickDistinct
// examines before concluding the fault has no usable distinct test and
// letting the Definition 1 fallback take over. Scanning a random
// permutation and returning the first qualifying test is uniform over the
// qualifying set; the cap turns the exhaustive scan into statistical
// sampling, which only matters for faults whose qualifying fraction is
// below ~1/cap — exactly the faults the paper's fallback is for. Without
// the cap, saturated faults with thousands of remaining tests would pay
// |T(f)| × |distinct set| 3-valued simulations per iteration.
const pickScanCap = 96

// pickDistinct draws a random member of {t ∈ T(f) − Tk : t is pairwise
// distinct from every counted detection} (see pickScanCap for the sampling
// bound). The candidates are T(f) − Tk in increasing order, read from the
// words of T(f) &^ Tk, and the shuffle runs over all of them before the
// cap applies. With no counted detection the first candidate is taken
// without asking the checker.
func (s *def2State) pickDistinct(i int, f *Fault, tk *TestSet, rng *rand.Rand) (int, bool) {
	cands := s.cands[:0]
	kw := tk.member.Words()
	for w, t := range f.T.Words() {
		for d := t &^ kw[w]; d != 0; d &= d - 1 {
			cands = append(cands, w*64+bits.TrailingZeros64(d))
		}
	}
	s.cands = cands
	rng.Shuffle(len(cands), func(a, b int) { cands[a], cands[b] = cands[b], cands[a] })
	if len(cands) > pickScanCap {
		cands = cands[:pickScanCap]
	}
	if len(cands) == 0 {
		return 0, false
	}
	if len(s.distinct[i]) == 0 {
		return cands[0], true
	}
	if at := s.checker.FirstDistinct(i, cands, s.distinct[i]); at >= 0 {
		return cands[at], true
	}
	return 0, false
}

// CircuitChecker implements Definition 2's similarity test with 3-valued
// simulation on the real circuit: tests t1 and t2 are distinct detections of
// fault i exactly when the partial vector t12 — specified where t1 and t2
// agree, X elsewhere — does NOT detect the fault.
//
// Verdicts are memoized per (fault, unordered pair) in one memo that the K
// parallel test-set constructions of a request share, since they revisit
// the same pairs constantly. No path takes a lock: a target's memo and
// cone are built on its first query and published through an
// atomic.Pointer, and the memo's words are read with atomic loads and
// written with CAS (pairMemo, DESIGN.md §1). Unmemoized pairs go to the
// fault's cone 64 at a time through the pair kernel DetectsPairs, in
// scratch taken from a pool for the length of one call.
type CircuitChecker struct {
	compiled *sim.Compiled // one engine lowering shared by every cone
	faults   []fault.StuckAt
	targets  []Fault                    // T(f) per target, for the memo's ranks
	memos    []atomic.Pointer[pairMemo] // per target, built on first use

	scratch sync.Pool // *checkScratch, one per call in flight
}

// checkScratch is one checker call's working memory. It is taken from the
// pool at the start of a call and returned at its end, and holds nothing
// the next call reads.
type checkScratch struct {
	pairs     sim.PairScratch
	pending   []int    // vectors whose pair with the fixed vector is unmemoized
	index     []int    // FirstDistinct: each pending vector's index into cands
	survivors []int    // FirstDistinct: indices into cands still distinct
	detect    []uint64 // kernel verdicts, one bit per pending pair
}

// NewCircuitCheckerFor builds the checker for a CircuitUniverse. The
// universe's model must have single stuck-at targets over U (Def2Capable);
// callers route other models away from Definition 2 before reaching here.
func NewCircuitCheckerFor(u *CircuitUniverse) *CircuitChecker {
	sas := u.StuckAt()
	if sas == nil {
		panic("ndetect: Definition 2 requires a fault model with single stuck-at targets")
	}
	return &CircuitChecker{
		compiled: sim.CompileCircuit(u.Circuit),
		faults:   sas,
		targets:  u.Targets,
		memos:    make([]atomic.Pointer[pairMemo], len(sas)),
		scratch:  sync.Pool{New: func() any { return new(checkScratch) }},
	}
}

// memo returns target i's memo, building it on first use. Two callers may
// build it at once; the first to publish wins and the other's copy is
// dropped, so every caller reads the same memo.
func (cc *CircuitChecker) memo(i int) *pairMemo {
	if m := cc.memos[i].Load(); m != nil {
		return m
	}
	f := cc.faults[i]
	m := newPairMemo(cc.compiled.NewFaultCone(f.Node), f.Value, cc.targets[i].T)
	if cc.memos[i].CompareAndSwap(nil, m) {
		return m
	}
	return cc.memos[i].Load()
}

// DistinctAll implements DistinctChecker, resolving the unmemoized pairs
// with the pair kernel.
func (cc *CircuitChecker) DistinctAll(faultIndex, v int, ds []int) bool {
	m := cc.memo(faultIndex)
	s := cc.scratch.Get().(*checkScratch)
	defer cc.scratch.Put(s)
	pending := s.pending[:0]
	for _, d := range ds {
		if d == v {
			return false
		}
		switch m.get(v, d) {
		case verdictSimilar:
			return false
		case verdictDistinct:
			continue
		}
		pending = append(pending, d)
	}
	s.pending = pending
	if len(pending) == 0 {
		return true
	}
	for _, w := range cc.resolve(m, v, pending, s) {
		if w != 0 {
			return false
		}
	}
	return true
}

// FirstDistinct implements DistinctChecker. Candidates are eliminated
// member by member: for each counted detection d, all surviving candidates
// are checked against d with memo lookups plus one kernel call per 64
// unmemoized pairs. The surviving set after the last member is exactly
// {candidates distinct from all of ds}, so the returned candidate matches
// what a sequential scan would pick.
func (cc *CircuitChecker) FirstDistinct(faultIndex int, cands []int, ds []int) int {
	m := cc.memo(faultIndex)
	s := cc.scratch.Get().(*checkScratch)
	defer cc.scratch.Put(s)
	survivors := s.survivors[:0]
	for i := range cands {
		survivors = append(survivors, i)
	}
	for _, d := range ds {
		next := survivors[:0]
		pending, index := s.pending[:0], s.index[:0]
		for _, si := range survivors {
			v := cands[si]
			if v == d {
				continue // never distinct from itself
			}
			switch m.get(v, d) {
			case verdictDistinct:
				next = append(next, si)
			case verdictUnknown:
				pending = append(pending, v)
				index = append(index, si)
			}
		}
		s.pending, s.index = pending, index

		if len(pending) > 0 {
			detect := cc.resolve(m, d, pending, s)
			for j, si := range index {
				if detect[j/64]>>uint(j%64)&1 == 0 {
					next = append(next, si)
				}
			}
		}
		survivors = next
	}
	s.survivors = survivors
	// Memo hits and simulated verdicts append in different orders, so the
	// survivor list is not sorted; the minimum index is the candidate a
	// sequential scan would have accepted first.
	best := -1
	for _, si := range survivors {
		if best < 0 || si < best {
			best = si
		}
	}
	return best
}

// resolve simulates the pairs (v, ds[j]) of m's fault, 64 to a kernel
// call, memoizes every verdict and returns the pairs whose common-bits test
// detects the fault — the pairs that are NOT distinct — as bit j%64 of
// word j/64 (stored in s.detect).
func (cc *CircuitChecker) resolve(m *pairMemo, v int, ds []int, s *checkScratch) []uint64 {
	detect := s.detect[:0]
	for lo := 0; lo < len(ds); lo += 64 {
		detect = append(detect, m.cone.DetectsPairs(uint64(v), ds[lo:min(lo+64, len(ds))], m.stuck, &s.pairs))
	}
	s.detect = detect
	for j, d := range ds {
		m.put(v, d, detect[j/64]>>uint(j%64)&1 == 0) // distinct iff t_vd does NOT detect
	}
	return detect
}
