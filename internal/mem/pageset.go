package mem

import (
	"fmt"
	"math/bits"

	"atmosphere/internal/hw"
)

// PageSet is a set of physical page addresses. It is the currency of the
// paper's page_closure() reasoning: each subsystem reports the set of
// pages it owns, and the verifier checks pairwise disjointness and that
// the union of all closures plus the free set covers physical memory.
//
// The representation is a dense bitset indexed by frame number
// (addr >> 12) with a cached cardinality — the Go counterpart of the
// paper's flat, frame-indexed permission maps. Set algebra is word-wise
// and iteration is ascending. A PageSet value is a reference, like a
// map: copies alias the same set. The zero value is an empty set that
// may be read but not written (as a nil map).
type PageSet struct{ b *pageBits }

type pageBits struct {
	words []uint64
	n     int // cardinality
}

// NewPageSet returns a set containing the given pages.
func NewPageSet(pages ...hw.PhysAddr) PageSet {
	s := PageSet{&pageBits{}}
	for _, p := range pages {
		s.Insert(p)
	}
	return s
}

// newSizedPageSets points each of sets at a fresh empty set with room
// for frames frames. All of them share one backing array, each capped to
// its own slice, so growing one can never write into another.
func newSizedPageSets(frames int, sets ...*PageSet) {
	nw := (frames + 63) / 64
	words := make([]uint64, nw*len(sets))
	pbs := make([]pageBits, len(sets))
	for i, s := range sets {
		pbs[i].words = words[i*nw : (i+1)*nw : (i+1)*nw]
		*s = PageSet{&pbs[i]}
	}
}

// frameOf returns the frame number of page address p, or false if p is
// not 4 KiB aligned.
func frameOf(p hw.PhysAddr) (uint64, bool) {
	return uint64(p) / hw.PageSize4K, uint64(p)%hw.PageSize4K == 0
}

// Insert adds p to the set. p must be 4 KiB aligned.
func (s PageSet) Insert(p hw.PhysAddr) {
	f, ok := frameOf(p)
	if !ok {
		panic(fmt.Sprintf("mem: PageSet.Insert of unaligned address %#x", uint64(p)))
	}
	s.insertFrame(f)
}

// insertFrame adds frame number f to the set.
func (s PageSet) insertFrame(f uint64) {
	b := s.b
	w := int(f / 64)
	if w >= len(b.words) {
		b.grow(w + 1)
	}
	bit := uint64(1) << (f % 64)
	if b.words[w]&bit == 0 {
		b.words[w] |= bit
		b.n++
	}
}

// grow extends the bitset to at least nw words.
func (b *pageBits) grow(nw int) {
	if nw <= cap(b.words) {
		b.words = b.words[:nw] // never shrunk, so the tail is still zero
		return
	}
	words := make([]uint64, nw, max(nw, 2*cap(b.words)))
	copy(words, b.words)
	b.words = words
}

// Clear empties the set, keeping its storage for reuse.
func (s PageSet) Clear() {
	clear(s.b.words)
	s.b.n = 0
}

// Remove deletes p from the set.
func (s PageSet) Remove(p hw.PhysAddr) {
	f, ok := frameOf(p)
	if !ok || s.b == nil || f/64 >= uint64(len(s.b.words)) {
		return
	}
	bit := uint64(1) << (f % 64)
	if s.b.words[f/64]&bit != 0 {
		s.b.words[f/64] &^= bit
		s.b.n--
	}
}

// Contains reports membership.
func (s PageSet) Contains(p hw.PhysAddr) bool {
	f, ok := frameOf(p)
	return ok && s.hasFrame(f)
}

// hasFrame reports whether frame number f is in the set.
func (s PageSet) hasFrame(f uint64) bool {
	w := s.words()
	return f/64 < uint64(len(w)) && w[f/64]&(1<<(f%64)) != 0
}

// firstAbsent returns the lowest frame number in [lo, hi] that is not
// in the set, or hi+1 if all of them are, reading one word per 64
// frames.
func (s PageSet) firstAbsent(lo, hi uint64) uint64 {
	w := s.words()
	for f := lo; f <= hi; f = (f/64 + 1) * 64 {
		if f/64 >= uint64(len(w)) {
			return f
		}
		if x := ^w[f/64] >> (f % 64); x != 0 {
			return min(f+uint64(bits.TrailingZeros64(x)), hi+1)
		}
	}
	return hi + 1
}

// words returns the bitset words (nil for the zero value).
func (s PageSet) words() []uint64 {
	if s.b == nil {
		return nil
	}
	return s.b.words
}

// Len returns the cardinality.
func (s PageSet) Len() int {
	if s.b == nil {
		return 0
	}
	return s.b.n
}

// Clone returns a copy of the set.
func (s PageSet) Clone() PageSet {
	return PageSet{&pageBits{words: append([]uint64(nil), s.words()...), n: s.Len()}}
}

// Union adds every element of other to s and returns s.
func (s PageSet) Union(other PageSet) PageSet {
	ow := other.words()
	if len(ow) > len(s.b.words) {
		s.b.grow(len(ow))
	}
	sw := s.b.words
	for i, w := range ow {
		if add := w &^ sw[i]; add != 0 {
			sw[i] |= add
			s.b.n += bits.OnesCount64(add)
		}
	}
	return s
}

// Disjoint reports whether s and other share no element.
func (s PageSet) Disjoint(other PageSet) bool {
	sw, ow := s.words(), other.words()
	if len(ow) < len(sw) {
		sw = sw[:len(ow)]
	}
	for i, w := range sw {
		if w&ow[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and other contain exactly the same pages.
func (s PageSet) Equal(other PageSet) bool {
	return s.Len() == other.Len() && s.Subset(other)
}

// Subset reports whether every element of s is in other.
func (s PageSet) Subset(other PageSet) bool {
	if s.Len() > other.Len() {
		return false
	}
	ow := other.words()
	for i, w := range s.words() {
		if i < len(ow) {
			w &^= ow[i]
		}
		if w != 0 {
			return false
		}
	}
	return true
}

// Each calls fn for every element in ascending order. fn must not
// modify the set.
func (s PageSet) Each(fn func(hw.PhysAddr)) {
	s.All()(func(p hw.PhysAddr) bool {
		fn(p)
		return true
	})
}

// All returns the elements in ascending order as a sequence that stops
// as soon as yield returns false; it has the shape of an
// iter.Seq[hw.PhysAddr] (spelled out because the module's go 1.22
// language version predates package iter and range-over-func). The
// scan costs O(words + elements). Each word is read once, before its
// elements are yielded: yield may remove the element it is given, but
// must not insert.
func (s PageSet) All() func(yield func(hw.PhysAddr) bool) {
	return func(yield func(hw.PhysAddr) bool) {
		for i, w := range s.words() {
			for w != 0 {
				f := uint64(i)*64 + uint64(bits.TrailingZeros64(w))
				if !yield(hw.PhysAddr(f * hw.PageSize4K)) {
					return
				}
				w &= w - 1
			}
		}
	}
}

// Sorted returns the elements in ascending order (for deterministic
// iteration and error messages).
func (s PageSet) Sorted() []hw.PhysAddr {
	out := make([]hw.PhysAddr, 0, s.Len())
	s.Each(func(p hw.PhysAddr) { out = append(out, p) })
	return out
}
