package ndetect

import (
	"math/bits"
	"sync/atomic"

	"ndetect/internal/bitset"
	"ndetect/internal/sim"
)

// Definition 2's verdict memo (DESIGN.md §1). A verdict is two bits,
// "known" and "distinct", so a memo word that reads 0 is a miss.
const (
	verdictUnknown  = 0
	verdictSimilar  = 1 // known, and t_ij detects the fault
	verdictDistinct = 3 // known, and t_ij does not detect it
)

// denseMaxN is the largest N(f) whose verdicts live in a dense triangle:
// 2 bits for each of the N(f)(N(f)−1)/2 member pairs, at most 128 KiB.
// Larger targets use a pairTable, which holds only the pairs queried. On
// keyb, whose targets lie on both sides of it, a threshold of 0 (every
// target in a table) or 4096 costs half again the peak memory that 1024
// does (DESIGN.md §1).
const denseMaxN = 1024

// triBandWords is the dense triangle's unit of allocation: 64 words, 2048
// pairs, 512 B. A band is allocated at the first write into it, so a
// target asked about a few pairs holds a few bands, not its whole
// triangle.
const triBandWords = 64

type triBand [triBandWords]atomic.Uint64

// pairTableSlots is a large target's first table size; it doubles at 3/4
// load, so it too holds about the pairs queried.
const pairTableSlots = 16

// pairMemo is one target's cone and verdict memo. Every verdict is a pure
// function of (fault, pair), so no memo state changes an answer: a hit, a
// miss, two writers racing on one slot (they write the same bits) or on
// one band's allocation (the loser writes into the winner's band), and an
// insert lost while a table grows (a later query recomputes it) all give
// the verdict the kernel gives.
type pairMemo struct {
	cone  *sim.FaultCone
	stuck bool

	// Dense layout (N(f) ≤ denseMaxN): t is T(f)'s words, below[w] counts
	// the members of T(f) in the words before w, and the triangle holds
	// the verdict of the member pair with ranks a < b at pair index
	// b(b−1)/2 + a, 32 pairs to a word, in bands published on first write.
	dense bool
	t     []uint64
	below []uint16
	bands []atomic.Pointer[triBand]

	// Large layout: an open-addressed table keyed by the vector pair.
	tab atomic.Pointer[pairTable]
}

func newPairMemo(cone *sim.FaultCone, stuck bool, t *bitset.Set) *pairMemo {
	m := &pairMemo{cone: cone, stuck: stuck}
	n := t.Count()
	if n > denseMaxN {
		m.tab.Store(newPairTable(pairTableSlots))
		return m
	}
	m.dense = true
	m.t = t.Words()
	m.below = make([]uint16, len(m.t))
	c := 0
	for w, x := range m.t {
		m.below[w] = uint16(c)
		c += bits.OnesCount64(x)
	}
	m.bands = make([]atomic.Pointer[triBand], (n*(n-1)/2+32*triBandWords-1)/(32*triBandWords))
	return m
}

// get returns the memoized verdict of the pair (v, d), v ≠ d.
func (m *pairMemo) get(v, d int) uint64 {
	if !m.dense {
		return m.tab.Load().get(pairKey(v, d))
	}
	w, shift, ok := m.slot(v, d)
	if !ok {
		return verdictUnknown
	}
	b := m.bands[w/triBandWords].Load()
	if b == nil {
		return verdictUnknown
	}
	return b[w%triBandWords].Load() >> shift & 3
}

// put memoizes the verdict of the pair (v, d), v ≠ d.
func (m *pairMemo) put(v, d int, distinct bool) {
	verdict := uint64(verdictSimilar)
	if distinct {
		verdict = verdictDistinct
	}
	if !m.dense {
		t := m.tab.Load()
		// Exactly one insert crosses the 3/4 mark, so one writer grows
		// each table, and the swap cannot fail.
		if t.add(pairKey(v, d)<<2|verdict) && t.used.Add(1) == int64(len(t.slots)/4*3) {
			m.tab.CompareAndSwap(t, t.grown())
		}
		return
	}
	w, shift, ok := m.slot(v, d)
	if !ok {
		return
	}
	band := &m.bands[w/triBandWords]
	b := band.Load()
	if b == nil {
		// Two writers may allocate the band at once: the first to publish
		// wins, and the other writes into the winner's.
		if b = new(triBand); !band.CompareAndSwap(nil, b) {
			b = band.Load()
		}
	}
	word := &b[w%triBandWords]
	for {
		old := word.Load()
		if old>>shift&3 == verdict || word.CompareAndSwap(old, old|verdict<<shift) {
			return
		}
	}
}

// slot locates the pair's two bits in the dense triangle. A pair with a
// vector outside T(f) has no slot and bypasses the memo: the rank of a
// non-member would alias the slot of the next member.
func (m *pairMemo) slot(v, d int) (w int, shift uint, ok bool) {
	a, b := m.rank(v), m.rank(d)
	if a < 0 || b < 0 {
		return 0, 0, false
	}
	if a > b {
		a, b = b, a
	}
	k := b*(b-1)/2 + a
	return k >> 5, uint(k&31) * 2, true
}

// rank returns v's rank among T(f)'s members, or -1 when v ∉ T(f).
func (m *pairMemo) rank(v int) int {
	x, b := m.t[v>>6], uint(v&63)
	if x>>b&1 == 0 {
		return -1
	}
	return int(m.below[v>>6]) + bits.OnesCount64(x&(1<<b-1))
}

func pairKey(a, b int) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// pairTable is an open-addressed, linearly probed table of verdicts, each
// slot key<<2 | verdict in one word, so a slot is read with one atomic
// load and claimed with one CAS. A key is lo<<32 | hi with lo < hi <
// 2^sim.MaxInputs = 2^28, so the shift loses no bit and no entry is 0,
// which marks an empty slot.
type pairTable struct {
	slots []atomic.Uint64 // power-of-two length
	shift uint            // 64 − log2(len(slots))
	used  atomic.Int64
}

func newPairTable(n int) *pairTable {
	return &pairTable{slots: make([]atomic.Uint64, n), shift: uint(64 - bits.TrailingZeros(uint(n)))}
}

func (t *pairTable) home(key uint64) int {
	return int(key * 0x9E3779B97F4A7C15 >> t.shift)
}

// get returns the key's verdict, or verdictUnknown.
func (t *pairTable) get(key uint64) uint64 {
	mask := len(t.slots) - 1
	for i, n := t.home(key), 0; n <= mask; i, n = (i+1)&mask, n+1 {
		e := t.slots[i].Load()
		if e == 0 {
			return verdictUnknown
		}
		if e>>2 == key {
			return e & 3
		}
	}
	return verdictUnknown
}

// add stores entry e unless its key is present, and reports whether it
// took an empty slot. A full table drops the entry.
func (t *pairTable) add(e uint64) bool {
	mask := len(t.slots) - 1
	key := e >> 2
	for i, n := t.home(key), 0; n <= mask; i, n = (i+1)&mask, n+1 {
		cur := t.slots[i].Load()
		if cur == 0 {
			if t.slots[i].CompareAndSwap(0, e) {
				return true
			}
			cur = t.slots[i].Load()
		}
		if cur>>2 == key {
			return false
		}
	}
	return false
}

// grown returns a table of twice t's size holding t's entries. Entries
// other writers add to t during the copy may miss it.
func (t *pairTable) grown() *pairTable {
	g := newPairTable(2 * len(t.slots))
	var n int64
	for i := range t.slots {
		if e := t.slots[i].Load(); e != 0 && g.add(e) {
			n++
		}
	}
	g.used.Store(n)
	return g
}
