package pm

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/mem"
)

// Table is a frame-indexed object table: slot f holds the object whose
// page is frame f (address f<<12), and a bitset of live slots gives
// ascending iteration. It is the run-time counterpart of the paper's
// per-subsystem PointsTo map (Listing 2): a kernel object pointer *is*
// its page, so the permission for it sits at the page's index, and a
// dereference is one bounds check and one load. The bitset grows only
// as far as the highest frame ever stored, so a scan skips the
// untouched top of memory. The zero value is an empty table that may be
// read but not written.
type Table[T any] struct {
	slots []*T
	live  mem.PageSet
}

// NewTable returns an empty table covering frames physical frames.
func NewTable[T any](frames int) Table[T] {
	return Table[T]{slots: make([]*T, frames), live: mem.NewPageSet()}
}

// slot returns p's frame index, or false if p is misaligned or beyond
// the table.
func (t *Table[T]) slot(p Ptr) (uint64, bool) {
	f := uint64(p) / hw.PageSize4K
	return f, uint64(p)%hw.PageSize4K == 0 && f < uint64(len(t.slots))
}

// Get returns the object at p. It reports false for a misaligned or
// out-of-range pointer and for an empty slot.
func (t *Table[T]) Get(p Ptr) (*T, bool) {
	f, ok := t.slot(p)
	if !ok {
		return nil, false
	}
	v := t.slots[f]
	return v, v != nil
}

// Put stores v at p, replacing any object already there. p must be a
// page address inside the table and v non-nil: objects live on pages
// the allocator handed out, so anything else is a kernel bug.
func (t *Table[T]) Put(p Ptr, v *T) {
	f, ok := t.slot(p)
	if !ok || v == nil {
		panic(fmt.Sprintf("pm: table put of %#x outside %d frames (or nil object)", p, len(t.slots)))
	}
	t.slots[f] = v
	t.live.Insert(p)
}

// Delete empties p's slot; a pointer with no object is a no-op.
func (t *Table[T]) Delete(p Ptr) {
	if f, ok := t.slot(p); ok && t.slots[f] != nil {
		t.slots[f] = nil
		t.live.Remove(p)
	}
}

// Len returns the number of live objects.
func (t *Table[T]) Len() int { return t.live.Len() }

// All yields every live object in ascending pointer order, in
// O(highest frame stored/64 + live), stopping as soon as yield returns false. It has
// the shape of an iter.Seq2[Ptr, *T], spelled out as a func type as in
// mem.PageSet.All. yield may delete entries (a deleted entry not yet
// reached is skipped) but must not put new ones.
func (t *Table[T]) All() func(yield func(Ptr, *T) bool) {
	return func(yield func(Ptr, *T) bool) {
		t.live.All()(func(p Ptr) bool {
			v := t.slots[p/hw.PageSize4K]
			return v == nil || yield(p, v)
		})
	}
}
