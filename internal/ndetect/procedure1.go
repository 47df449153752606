package ndetect

import (
	"math/bits"
	"math/rand"
	"sync"

	"ndetect/internal/sim"
)

// DistinctChecker is Definition 2's similarity oracle (paper Section 4),
// asked in the two batched forms Procedure 1 needs. Tests t1 and t2 count
// as two different detections of target fault i when the partial test
// t12, specified where they agree and X elsewhere, does NOT detect the
// fault; a test is never distinct from itself. Implementations must be
// safe for concurrent use.
type DistinctChecker interface {
	// DistinctAll reports whether v is distinct from every test in ds.
	DistinctAll(faultIndex, v int, ds []int) bool
	// FirstDistinct returns the index of the first candidate, in cands
	// order, that is distinct from every test in ds, or -1 when none is
	// (cands empty included). An empty ds accepts the first candidate.
	FirstDistinct(faultIndex int, cands []int, ds []int) int
}

// Procedure1Options configures the random n-detection test set generator.
type Procedure1Options struct {
	NMax int   // build n-detection test sets for n = 1..NMax (paper: 10)
	K    int   // number of test sets per n (paper: 10000 for Table 5, 1000 for Table 6)
	Seed int64 // base seed; test set k uses a deterministic stream derived from (Seed, k)

	// Checker, when non-nil, selects Definition 2: two tests count as
	// distinct detections of f only if Checker says so, and a fault that
	// cannot reach n distinct detections falls back to Definition 1 (as
	// the paper specifies). Nil selects Definition 1: a fault is detected
	// n times if the set contains n tests that detect it.
	Checker DistinctChecker

	// Workers bounds the parallelism over test sets (default: GOMAXPROCS).
	// Results are deterministic regardless of the worker count: each test
	// set's randomness comes only from its own (Seed, k) stream.
	Workers int

	// Progress, when non-nil, observes completed test sets: it is called
	// serially with (finished, K) as each of the K sets completes, in
	// completion order. Like Workers, it never influences results.
	Progress func(done, total int)

	// KeepTestSets retains the constructed test sets per n (memory-heavy
	// for large K; used for illustration and tests, cf. the paper's
	// Table 4).
	KeepTestSets bool
}

func (o *Procedure1Options) normalize() {
	if o.NMax <= 0 {
		o.NMax = 10
	}
	if o.K <= 0 {
		o.K = 1000
	}
	o.Workers = sim.ResolveWorkers(o.Workers)
}

// Procedure1Result aggregates the K runs.
type Procedure1Result struct {
	NMax int
	K    int

	// Detected[n-1][j] is d(n, g_j): among the K n-detection test sets,
	// how many detect untargeted fault j.
	Detected [][]int

	// SetSizeSum[n-1] is the summed size of the K n-detection test sets
	// (SetSizeSum[n-1]/K is the average size, which grows roughly linearly
	// in n, the paper's motivation for bounding n).
	SetSizeSum []int64

	// TestSets[n-1][k] is test set k after iteration n. Only populated
	// with KeepTestSets.
	TestSets [][]*TestSet
}

// P returns the estimated probability p(n, g_j) = d(n,g_j)/K.
func (r *Procedure1Result) P(n, j int) float64 {
	return float64(r.Detected[n-1][j]) / float64(r.K)
}

// Procedure1 implements the paper's Procedure 1: for every k it grows a test
// set through iterations n = 1..NMax; at the end of iteration n, Tk is an
// n-detection test set. Detection statistics for the untargeted faults are
// recorded after every iteration.
//
// The draws are exact and allocation-free (DESIGN.md §1): each target's
// Definition 1 count is kept exact, through the transposed T-sets, until
// it reaches min(NMax, N(f)), a draw selects its test inside the words of
// T(f) &^ Tk, and each untargeted fault's first-detection iteration is
// merged once per set. Every pick consumes the same rng draws as the
// direct construction — clone T(f) − Tk, count it, take its Intn(c)-th
// member — so the result is identical.
func Procedure1(u *Universe, opts Procedure1Options) (*Procedure1Result, error) {
	opts.normalize()
	if err := u.Validate(); err != nil {
		return nil, err
	}

	res := &Procedure1Result{
		NMax:       opts.NMax,
		K:          opts.K,
		Detected:   make([][]int, opts.NMax),
		SetSizeSum: make([]int64, opts.NMax),
	}
	for n := range res.Detected {
		res.Detected[n] = make([]int, len(u.Untargeted))
	}
	if opts.KeepTestSets {
		res.TestSets = make([][]*TestSet, opts.NMax)
		for n := range res.TestSets {
			res.TestSets[n] = make([]*TestSet, opts.K)
		}
	}

	p := newProc1(u, &opts)
	// One setState per worker, reused by every set that worker takes.
	states := make([]*setState, opts.Workers)

	// Fan the K independent test-set streams over the §5 worker budget.
	// Every merge into res is commutative (counters under mu), so the
	// work-stealing completion order never shows in the result bytes.
	var mu sync.Mutex
	finished := 0
	sim.ParallelFor(opts.Workers, opts.K, func(w, k int) {
		if states[w] == nil {
			states[w] = p.newSetState()
		}
		states[w].run(k, res, &mu)
		if opts.Progress != nil {
			mu.Lock()
			finished++
			opts.Progress(finished, opts.K)
			mu.Unlock()
		}
	})
	// Sets were merged at their first-detection iteration; d(n, g) counts
	// every set that detects g by iteration n.
	for n := 1; n < opts.NMax; n++ {
		prev, cur := res.Detected[n-1], res.Detected[n]
		for j := range cur {
			cur[j] += prev[j]
		}
	}
	return res, nil
}

// proc1 is the read-only state every test set of one Procedure1 call
// shares.
type proc1 struct {
	u    *Universe
	opts *Procedure1Options
	nf   []int // N(f) per target
	// top[i] = min(NMax, N(f)): once target i has that many Definition 1
	// detections it never draws again, since n ≤ NMax and T(f) − Tk is
	// empty at N(f).
	top []int32
	// rows is the transpose of the target T-sets: row(v), the fw words at
	// rows[v*fw:], marks the targets vector v detects, so adding v counts
	// only those targets.
	rows  []uint64
	fw    int      // words per row, ⌈|F|/64⌉
	live0 []uint64 // the targets with top > 0: every set's first live mask
	// gAt[v] lists the untargeted faults vector v detects: marking first
	// detections costs O(|faults v detects|) per added vector instead of
	// a |G| sweep per iteration.
	gAt [][]int32
}

func newProc1(u *Universe, opts *Procedure1Options) *proc1 {
	nt := len(u.Targets)
	fw := (nt + 63) / 64
	p := &proc1{
		u: u, opts: opts,
		nf:    make([]int, nt),
		top:   make([]int32, nt),
		rows:  make([]uint64, u.Size*fw),
		fw:    fw,
		live0: make([]uint64, fw),
		gAt:   make([][]int32, u.Size),
	}
	for i, f := range u.Targets {
		p.nf[i] = f.T.Count()
		p.top[i] = int32(min(opts.NMax, p.nf[i]))
		bit := uint64(1) << uint(i%64)
		if p.top[i] > 0 {
			p.live0[i/64] |= bit
		}
		for wi, w := range f.T.Words() {
			for ; w != 0; w &= w - 1 {
				v := wi*64 + bits.TrailingZeros64(w)
				p.rows[v*fw+i/64] |= bit
			}
		}
	}
	buf := make([]uint64, (u.Size+63)/64)
	for j, g := range u.Untargeted {
		for wi, w := range g.Words(buf) {
			for ; w != 0; w &= w - 1 {
				v := wi*64 + bits.TrailingZeros64(w)
				p.gAt[v] = append(p.gAt[v], int32(j))
			}
		}
	}
	return p
}

// setState is one test set's working state. run resets it, so a state
// serves any number of sets, one at a time; it never carries results from
// one set into the next.
type setState struct {
	*proc1
	rng *rand.Rand
	tk  *TestSet
	// cnt[i] is target i's Definition 1 count |T(f) ∩ Tk| while the
	// target is live; live marks the targets with cnt < top. A target
	// leaves live when its count reaches top, and nothing reads its count
	// after that.
	cnt  []int32
	live []uint64
	// seen marks the untargeted faults Tk detects; order lists them in
	// first-detection order, and ends[n-1] is len(order) after iteration
	// n, so the faults first detected at iteration n are
	// order[ends[n-2]:ends[n-1]].
	seen  []bool
	order []int32
	ends  []int
	sizes []int      // sizes[n-1] = |Tk| after iteration n
	d2    *def2State // Definition 2 only
}

func (p *proc1) newSetState() *setState {
	s := &setState{
		proc1: p,
		rng:   rand.New(new(seedSource)),
		tk:    NewTestSet(p.u.Size),
		cnt:   make([]int32, len(p.u.Targets)),
		live:  make([]uint64, p.fw),
		seen:  make([]bool, len(p.u.Untargeted)),
		ends:  make([]int, p.opts.NMax),
		sizes: make([]int, p.opts.NMax),
	}
	if p.opts.Checker != nil {
		s.d2 = newDef2State(len(p.u.Targets), p.opts.Checker)
	}
	return s
}

// run builds test set k through all NMax iterations and merges its
// statistics into res under mu.
func (s *setState) run(k int, res *Procedure1Result, mu *sync.Mutex) {
	opts := s.opts
	// Reseeding restarts the stream exactly as a fresh
	// rand.New(rand.NewSource(seed)) would (seedSource).
	s.rng.Seed(mix(opts.Seed, int64(k)))
	s.tk.reset()
	clear(s.cnt)
	copy(s.live, s.live0)
	for _, j := range s.order {
		s.seen[j] = false
	}
	s.order = s.order[:0]
	if s.d2 != nil {
		s.d2.reset()
	}

	for n := 1; n <= opts.NMax; n++ {
		if s.d2 == nil {
			// Only live targets can draw. The mask word is read again
			// after each draw, which skips the targets the draw retired.
			for w := range s.live {
				for m := s.live[w]; m != 0; {
					b := bits.TrailingZeros64(m)
					if i := w*64 + b; int(s.cnt[i]) < n {
						s.drawOutside(i)
					}
					m = s.live[w] & (^uint64(1) << uint(b))
				}
			}
		} else {
			for fi := range s.u.Targets {
				f := &s.u.Targets[fi]
				if s.d2.countUpTo(fi, n, f, s.tk) >= n {
					continue
				}
				// Find a test outside Tk that counts as a distinct
				// detection under Definition 2. (Its membership in the
				// distinct set is established when the cursor reaches it.)
				if v, ok := s.d2.pickDistinct(fi, f, s.tk, s.rng); ok {
					s.add(v)
					continue
				}
				// Fall back to Definition 1 for this fault so it is not
				// left with far fewer than n detections.
				if s.live[fi/64]>>uint(fi%64)&1 != 0 && int(s.cnt[fi]) < n {
					s.drawOutside(fi)
				}
			}
		}
		s.ends[n-1] = len(s.order)
		s.sizes[n-1] = s.tk.Len()
		if opts.KeepTestSets {
			mu.Lock()
			res.TestSets[n-1][k] = s.tk.Clone()
			mu.Unlock()
		}
	}

	mu.Lock()
	from := 0
	for n, to := range s.ends {
		for _, j := range s.order[from:to] {
			res.Detected[n][j]++
		}
		from = to
		res.SetSizeSum[n] += int64(s.sizes[n])
	}
	mu.Unlock()
}

// drawOutside adds a uniformly random member of T(f) − Tk for live target
// i: one draw r = Intn(c) with c = N(f) − cnt[i] = |T(f) − Tk|, then the
// r-th member of T(f) &^ Tk.
func (s *setState) drawOutside(i int) {
	r := s.rng.Intn(s.nf[i] - int(s.cnt[i]))
	s.add(nthOutside(s.u.Targets[i].T.Words(), s.tk.member.Words(), r))
}

// nthOutside returns the r-th member (0-based, increasing order) of the
// set whose words are t &^ k — the vector bitset.Nth picks from the
// difference set — without building it: it skips whole words by popcount,
// then clears the r lowest set bits of the word that holds the member.
func nthOutside(t, k []uint64, r int) int {
	k = k[:len(t)]
	for w, tw := range t {
		d := tw &^ k[w]
		if c := bits.OnesCount64(d); r >= c {
			r -= c
			continue
		}
		for ; r > 0; r-- {
			d &= d - 1
		}
		return w*64 + bits.TrailingZeros64(d)
	}
	panic("ndetect: draw index beyond |T(f) − Tk|")
}

// add inserts a vector known to be outside Tk, counts it for the live
// targets it detects, retiring each that reaches top, and marks the
// untargeted faults it detects first.
func (s *setState) add(v int) {
	s.tk.Add(v)
	live, cnt, top := s.live, s.cnt, s.top
	for w, r := range s.rows[v*s.fw:][:len(live)] {
		lw := live[w]
		m := r & lw
		if m == 0 {
			continue
		}
		for ; m != 0; m &= m - 1 {
			i := w*64 + bits.TrailingZeros64(m)
			cnt[i]++
			if cnt[i] == top[i] {
				lw &^= m & -m
			}
		}
		live[w] = lw
	}
	for _, j := range s.gAt[v] {
		if !s.seen[j] {
			s.seen[j] = true
			s.order = append(s.order, j)
		}
	}
}

// mix derives a well-spread 64-bit seed from (base, k) with a splitmix64
// round, so neighbouring k values do not produce correlated rand streams.
func mix(base, k int64) int64 {
	z := uint64(base) + uint64(k)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z = z ^ (z >> 31)
	return int64(z)
}
