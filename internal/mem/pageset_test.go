package mem

import (
	"math/rand"
	"sort"
	"testing"

	"atmosphere/internal/hw"
)

// refSet is the reference model PageSet is checked against: the map it
// replaced.
type refSet map[hw.PhysAddr]struct{}

func (m refSet) sorted() []hw.PhysAddr {
	out := make([]hw.PhysAddr, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m refSet) subset(o refSet) bool {
	for p := range m {
		if _, ok := o[p]; !ok {
			return false
		}
	}
	return true
}

func (m refSet) disjoint(o refSet) bool {
	for p := range m {
		if _, ok := o[p]; ok {
			return false
		}
	}
	return true
}

// pageSetLastFrame is the highest frame the differential test draws: the
// last frame of mck's default 8192-frame machine.
const pageSetLastFrame = 8191

// drawPage picks a page below limit frames, hitting frame 0 and the last
// frame of the range often.
func drawPage(r *rand.Rand, limit int) hw.PhysAddr {
	f := r.Intn(limit)
	switch r.Intn(8) {
	case 0:
		f = 0
	case 1:
		f = limit - 1
	}
	return hw.PhysAddr(uint64(f) * hw.PageSize4K)
}

func checkAgainstRef(t *testing.T, step int, s PageSet, m refSet) {
	t.Helper()
	if s.Len() != len(m) {
		t.Fatalf("step %d: Len %d, reference %d", step, s.Len(), len(m))
	}
	got, want := s.Sorted(), m.sorted()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: Sorted[%d] = %#x, reference %#x", step, i, got[i], want[i])
		}
	}
	var each []hw.PhysAddr
	s.Each(func(p hw.PhysAddr) { each = append(each, p) })
	if len(each) != len(want) {
		t.Fatalf("step %d: Each visited %d pages, reference %d", step, len(each), len(want))
	}
	for i := range want {
		if each[i] != want[i] {
			t.Fatalf("step %d: Each[%d] = %#x, reference %#x", step, i, each[i], want[i])
		}
	}
}

// TestPageSetDifferential runs seeded random sequences of every PageSet
// method over sets of different word lengths and checks each result
// against the map model.
func TestPageSetDifferential(t *testing.T) {
	// Frame limits: one word, a partial second word, several words, and
	// the full default machine, so Union/Equal/Subset/Disjoint meet
	// operands of unequal length and sets grow on Insert.
	limits := []int{64, 100, 1000, pageSetLastFrame + 1}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		sets := make([]PageSet, len(limits))
		refs := make([]refSet, len(limits))
		for i := range sets {
			sets[i] = NewPageSet()
			refs[i] = refSet{}
		}
		for step := 0; step < 2000; step++ {
			i, j := r.Intn(len(sets)), r.Intn(len(sets))
			s, m := sets[i], refs[i]
			o, om := sets[j], refs[j]
			p := drawPage(r, limits[i])
			switch op := r.Intn(11); op {
			case 0, 1, 2:
				s.Insert(p)
				m[p] = struct{}{}
			case 3, 4:
				s.Remove(p)
				delete(m, p)
			case 5:
				_, want := m[p]
				if got := s.Contains(p); got != want {
					t.Fatalf("seed %d step %d: Contains(%#x) = %v, reference %v", seed, step, p, got, want)
				}
			case 6:
				// Replace set i by a clone of set j (or by an empty set,
				// now and then) and check the clone is independent.
				if r.Intn(4) == 0 {
					sets[i], refs[i] = NewPageSet(), refSet{}
					break
				}
				c := o.Clone()
				cm := refSet{}
				for q := range om {
					cm[q] = struct{}{}
				}
				q := drawPage(r, limits[j])
				c.Insert(q)
				if _, had := om[q]; o.Contains(q) != had {
					t.Fatalf("seed %d step %d: Insert into a clone changed the original", seed, step)
				}
				cm[q] = struct{}{}
				sets[i], refs[i] = c, cm
			case 7:
				if got := s.Union(o); got.b != s.b {
					t.Fatalf("seed %d step %d: Union did not return its receiver", seed, step)
				}
				for q := range om {
					m[q] = struct{}{}
				}
			case 8:
				if got, want := s.Disjoint(o), m.disjoint(om); got != want {
					t.Fatalf("seed %d step %d: Disjoint = %v, reference %v", seed, step, got, want)
				}
			case 9:
				want := len(m) == len(om) && m.subset(om)
				if got := s.Equal(o); got != want {
					t.Fatalf("seed %d step %d: Equal = %v, reference %v", seed, step, got, want)
				}
			case 10:
				if got, want := s.Subset(o), m.subset(om); got != want {
					t.Fatalf("seed %d step %d: Subset = %v, reference %v", seed, step, got, want)
				}
			}
			checkAgainstRef(t, step, sets[i], refs[i])
		}
	}
}

// TestPageSetEdges covers the empty set, frame 0, the last frame, growth
// across words, and comparisons between sets of different word lengths.
func TestPageSetEdges(t *testing.T) {
	last := hw.PhysAddr(pageSetLastFrame * hw.PageSize4K)
	var zero PageSet
	empty := NewPageSet()
	if zero.Len() != 0 || zero.Contains(0) || len(zero.Sorted()) != 0 {
		t.Fatal("zero PageSet is not empty")
	}
	if !zero.Equal(empty) || !empty.Equal(zero) || !zero.Subset(empty) || !zero.Disjoint(empty) {
		t.Fatal("zero PageSet and NewPageSet() disagree")
	}
	c := zero.Clone()
	c.Insert(last) // a clone of the zero value is writable
	if c.Len() != 1 || zero.Len() != 0 {
		t.Fatal("clone of zero PageSet wrong")
	}

	s := NewPageSet(0, last)
	if s.Len() != 2 || !s.Contains(0) || !s.Contains(last) || s.Contains(hw.PageSize4K) {
		t.Fatalf("frame 0 / last frame membership wrong: %v", s.Sorted())
	}
	if got := s.Sorted(); got[0] != 0 || got[1] != last {
		t.Fatalf("Sorted = %v", got)
	}
	// Operands of different word lengths, both ways round.
	short := NewPageSet(0)
	if !short.Subset(s) || s.Subset(short) || short.Equal(s) || s.Equal(short) {
		t.Fatal("short/long subset or equality wrong")
	}
	if short.Disjoint(s) || s.Disjoint(short) {
		t.Fatal("short/long overlap missed")
	}
	s.Remove(0)
	if !short.Disjoint(s) || !s.Disjoint(short) {
		t.Fatal("short/long disjointness wrong")
	}
	// A long set that lost its high pages equals a short one.
	s.Remove(last)
	s.Insert(0)
	if !s.Equal(short) || !short.Equal(s) {
		t.Fatal("sets with equal elements but different word lengths compare unequal")
	}
	// Removing what is absent, out of range or unaligned is a no-op, as
	// for a map.
	s.Remove(last + 64*hw.PageSize4K)
	s.Remove(0x1234)
	zero.Remove(0)
	if s.Len() != 1 || s.Contains(0x1234) {
		t.Fatal("no-op Remove changed the set")
	}
	// Union into a shorter set grows it.
	short.Union(NewPageSet(last))
	if short.Len() != 2 || !short.Contains(last) {
		t.Fatal("Union did not grow the receiver")
	}
}

// TestPageSetAliasing pins map-like reference semantics: a copied value
// is the same set, including across growth.
func TestPageSetAliasing(t *testing.T) {
	s := NewPageSet()
	alias := s
	alias.Insert(0x1000)
	alias.Insert(hw.PhysAddr(pageSetLastFrame * hw.PageSize4K)) // grows the words
	if !s.Contains(0x1000) || !s.Contains(hw.PhysAddr(pageSetLastFrame*hw.PageSize4K)) || s.Len() != 2 {
		t.Fatal("copied PageSet does not alias the original")
	}
	s.Remove(0x1000)
	if alias.Contains(0x1000) || alias.Len() != 1 {
		t.Fatal("Remove through one copy not seen by the other")
	}
	// Snapshot sets share a backing array; growing one must not write
	// into its neighbour. (Built directly: the allocator's own snapshot
	// sets are memoized and read-only.)
	var free4K, free2M PageSet
	newSizedPageSets(64, &free4K, &free2M)
	free4K.Insert(hw.PhysAddr(200 * hw.PageSize4K))
	if free2M.Len() != 0 || free2M.Contains(hw.PhysAddr(200*hw.PageSize4K)) {
		t.Fatal("growing one snapshot set wrote into another")
	}
}

func TestPageSetUnalignedInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned Insert did not panic")
		}
	}()
	NewPageSet().Insert(0x1001)
}

func TestFreeListSetSizeClasses(t *testing.T) {
	a := newTestAlloc(2 * hw.Pages4KPer2M)
	for i := 0; i < 5; i++ {
		if _, err := a.AllocPage4K(OwnerProcessMgr); err != nil {
			t.Fatal(err)
		}
	}
	head, err := a.Merge2M()
	if err != nil {
		t.Fatal(err)
	}
	if got := a.FreeListSet(Size2M); got.Len() != 1 || !got.Contains(head) {
		t.Fatalf("2M free-list set %v, want the merged head %#x", got.Sorted(), head)
	}
	if got := a.FreeListSet(Size4K).Len(); got != a.FreeCount4K() {
		t.Fatalf("4K free-list set has %d pages, free count %d", got, a.FreeCount4K())
	}
	if a.FreeListSet(Size1G).Len() != 0 {
		t.Fatal("1G free list not empty")
	}
	checkPartition(t, a)
}
