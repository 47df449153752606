// Package bitset provides dense bit sets over the exhaustive input space
// U = {0, 1, ..., size-1} of a combinational circuit.
//
// Every object the n-detection analysis manipulates — the test set T(f) of a
// target fault, the test set T(g) of an untargeted fault, and the test sets
// constructed by Procedure 1 — is a subset of U and is represented by a Set.
// The worst-case analysis reduces to popcounts of intersections of such sets,
// so Set is optimized for word-parallel boolean operations and population
// counting.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-universe dense bit set. The zero value is unusable; create
// sets with New. All binary operations require operands drawn from the same
// universe size and panic otherwise, since mixing universes is always a
// programming error in this code base.
type Set struct {
	size  int
	words []uint64
}

// New returns an empty set over the universe {0, ..., size-1}.
func New(size int) *Set {
	if size < 0 {
		panic("bitset: negative universe size")
	}
	return &Set{
		size:  size,
		words: make([]uint64, (size+wordBits-1)/wordBits),
	}
}

// NewBatch returns n empty sets over the same universe backed by two
// allocations (one word slab, one header array) instead of 2n. Analyses
// that materialize one result set per fault use it so the allocation count
// and GC scan work stay independent of the fault count; the returned sets
// are otherwise ordinary and independently mutable.
func NewBatch(size, n int) []*Set {
	if size < 0 {
		panic("bitset: negative universe size")
	}
	words := (size + wordBits - 1) / wordBits
	slab := make([]uint64, n*words)
	hdrs := make([]Set, n)
	out := make([]*Set, n)
	for i := range hdrs {
		hdrs[i] = Set{size: size, words: slab[i*words : (i+1)*words : (i+1)*words]}
		out[i] = &hdrs[i]
	}
	return out
}

// FromMembers returns a set over {0,...,size-1} containing exactly the given
// members.
func FromMembers(size int, members ...int) *Set {
	s := New(size)
	for _, m := range members {
		s.Add(m)
	}
	return s
}

// Size returns the universe size (not the number of members; see Count).
func (s *Set) Size() int { return s.size }

// Words exposes the backing words for read-only word-parallel consumers such
// as the bit-parallel simulator. The final word's unused high bits are zero.
func (s *Set) Words() []uint64 { return s.words }

// SetWord overwrites the w-th 64-bit word. Bits beyond the universe size are
// masked off, preserving the invariant that unused high bits stay zero.
func (s *Set) SetWord(w int, v uint64) {
	if w == len(s.words)-1 {
		if rem := s.size % wordBits; rem != 0 {
			v &= (uint64(1) << rem) - 1
		}
	}
	s.words[w] = v
}

// maskTail re-masks the final word after a range store ending at word hi,
// preserving the invariant that bits beyond the universe size stay zero.
func (s *Set) maskTail(hi int) {
	if hi == len(s.words) {
		if rem := s.size % wordBits; rem != 0 {
			s.words[hi-1] &= (uint64(1) << rem) - 1
		}
	}
}

// SetRange overwrites words [lo, lo+len(p)) with p, masking bits beyond
// the universe size. The range stores exist for the streaming emit path:
// one call per (fault, block) instead of one SetWord call per word.
func (s *Set) SetRange(lo int, p []uint64) {
	copy(s.words[lo:lo+len(p)], p)
	s.maskTail(lo + len(p))
}

// SetRangeNot overwrites words [lo, lo+len(p)) with ^p[w].
func (s *Set) SetRangeNot(lo int, p []uint64) {
	dst := s.words[lo : lo+len(p)]
	for w := range dst {
		dst[w] = ^p[w]
	}
	s.maskTail(lo + len(p))
}

// SetRangeAnd overwrites words [lo, lo+len(p)) with p[w] & m[w].
func (s *Set) SetRangeAnd(lo int, p, m []uint64) {
	dst := s.words[lo : lo+len(p)]
	p, m = p[:len(dst)], m[:len(dst)]
	for w := range dst {
		dst[w] = p[w] & m[w]
	}
	s.maskTail(lo + len(p))
}

// SetRangeAndNot overwrites words [lo, lo+len(p)) with p[w] &^ m[w].
func (s *Set) SetRangeAndNot(lo int, p, m []uint64) {
	dst := s.words[lo : lo+len(p)]
	p, m = p[:len(dst)], m[:len(dst)]
	for w := range dst {
		dst[w] = p[w] &^ m[w]
	}
	s.maskTail(lo + len(p))
}

// SplitRangeAnd overwrites andSet's words [lo, lo+len(p)) with p[w] & m[w]
// and andNotSet's with p[w] &^ m[w] in one pass over the operands. The
// paired stuck-at emit (sa0 activated where the good value is 1, sa1 where
// it is 0) is the hot caller: one line's propagation block splits into both
// polarities' T-sets reading p and m once instead of twice.
func SplitRangeAnd(andSet, andNotSet *Set, lo int, p, m []uint64) {
	da := andSet.words[lo : lo+len(p)]
	dn := andNotSet.words[lo : lo+len(da)]
	p, m = p[:len(da)], m[:len(da)]
	for w := range da {
		pw, mw := p[w], m[w]
		da[w] = pw & mw
		dn[w] = pw &^ mw
	}
	andSet.maskTail(lo + len(p))
	andNotSet.maskTail(lo + len(p))
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.size {
		panic(fmt.Sprintf("bitset: index %d out of universe [0,%d)", i, s.size))
	}
}

// Add inserts member i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes member i.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether i is a member.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of members.
func (s *Set) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no members.
func (s *Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	c := New(s.size)
	copy(c.words, s.words)
	return c
}

// Clear removes all members.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill inserts every member of the universe.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if rem := s.size % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (uint64(1) << rem) - 1
	}
}

func (s *Set) sameUniverse(t *Set) {
	if s.size != t.size {
		panic(fmt.Sprintf("bitset: universe mismatch %d vs %d", s.size, t.size))
	}
}

// IntersectWith makes s the intersection s ∩ t.
func (s *Set) IntersectWith(t *Set) {
	s.sameUniverse(t)
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// UnionWith makes s the union s ∪ t.
func (s *Set) UnionWith(t *Set) {
	s.sameUniverse(t)
	for i := range s.words {
		s.words[i] |= t.words[i]
	}
}

// DifferenceWith makes s the difference s − t.
func (s *Set) DifferenceWith(t *Set) {
	s.sameUniverse(t)
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// Intersection returns a new set s ∩ t.
func (s *Set) Intersection(t *Set) *Set {
	c := s.Clone()
	c.IntersectWith(t)
	return c
}

// Union returns a new set s ∪ t.
func (s *Set) Union(t *Set) *Set {
	c := s.Clone()
	c.UnionWith(t)
	return c
}

// Difference returns a new set s − t.
func (s *Set) Difference(t *Set) *Set {
	c := s.Clone()
	c.DifferenceWith(t)
	return c
}

// IntersectionCount returns |s ∩ t| without allocating.
// This is M(g,f) in the paper's worst-case analysis.
func (s *Set) IntersectionCount(t *Set) int {
	s.sameUniverse(t)
	n := 0
	for i, w := range s.words {
		n += bits.OnesCount64(w & t.words[i])
	}
	return n
}

// Intersects reports whether s ∩ t is non-empty without allocating.
func (s *Set) Intersects(t *Set) bool {
	s.sameUniverse(t)
	for i, w := range s.words {
		if w&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and t have the same universe and members.
func (s *Set) Equal(t *Set) bool {
	if s.size != t.size {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every member of s is a member of t.
func (s *Set) SubsetOf(t *Set) bool {
	s.sameUniverse(t)
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every member in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Members returns the members in increasing order.
func (s *Set) Members() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// Nth returns the n-th member (0-based) in increasing order, or -1 if the set
// has fewer than n+1 members. It is used to draw a uniformly random member by
// indexing with a random n < Count().
func (s *Set) Nth(n int) int {
	if n < 0 {
		return -1
	}
	for wi, w := range s.words {
		c := bits.OnesCount64(w)
		if n >= c {
			n -= c
			continue
		}
		for ; w != 0; w &= w - 1 {
			if n == 0 {
				return wi*wordBits + bits.TrailingZeros64(w)
			}
			n--
		}
	}
	return -1
}

// String renders the members like "{0, 3, 7}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
