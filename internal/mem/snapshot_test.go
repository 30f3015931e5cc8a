package mem

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"atmosphere/internal/hw"
)

// refMeta is the reference model of one frame's metadata: what Meta
// must report, minus the free-list links.
type refMeta struct {
	State    PageState
	Size     SizeClass
	Owner    Owner
	RefCount uint32
	Head     int32
}

// scanModel drives an allocator and its core caches through random
// histories while keeping refMeta for every frame, updated from the
// page observer's events and from the test's own Merge2M/Split calls.
type scanModel struct {
	t     *testing.T
	r     *rand.Rand
	a     *Allocator
	cc    *CoreCaches
	m     []refMeta
	owner Owner // owner of the AllocPage4K in progress
}

const scanReserved = 3

func newScanModel(t *testing.T, seed int64, frames int) *scanModel {
	var clk hw.Clock
	a := NewAllocator(hw.NewPhysMem(frames), &clk, scanReserved)
	s := &scanModel{t: t, r: rand.New(rand.NewSource(seed)), a: a,
		cc: NewCoreCaches(a, 2, 4), m: make([]refMeta, frames)}
	for f := range s.m {
		s.m[f] = refMeta{State: StateFree, Size: Size4K, Owner: OwnerNone, Head: nilIdx}
		if f < scanReserved {
			s.m[f] = refMeta{State: StateAllocated, Size: Size4K, Owner: OwnerBoot, Head: nilIdx}
		}
	}
	a.SetObserver(s.observe)
	return s
}

func (s *scanModel) observe(op PageOp, p hw.PhysAddr, sc SizeClass) {
	m := &s.m[p/hw.PageSize4K]
	switch op {
	case OpAllocObj:
		*m = refMeta{State: StateAllocated, Size: Size4K, Owner: s.owner, Head: nilIdx}
	case OpAllocUser, OpCacheAlloc:
		*m = refMeta{State: StateMapped, Size: sc, Owner: OwnerUser, RefCount: 1, Head: nilIdx}
	case OpIncRef:
		m.RefCount++
	case OpDecRef:
		m.RefCount--
	case OpFreeObj, OpFreeUser, OpCacheDrain:
		*m = refMeta{State: StateFree, Size: sc, Owner: OwnerNone, Head: nilIdx}
	case OpCacheFill, OpCacheFree:
		*m = refMeta{State: StateAllocated, Size: Size4K, Owner: OwnerPCache, Head: nilIdx}
	}
}

// pick returns a random frame address satisfying ok, or false.
func (s *scanModel) pick(ok func(f int, m refMeta) bool) (hw.PhysAddr, bool) {
	var c []int
	for f, m := range s.m {
		if ok(f, m) {
			c = append(c, f)
		}
	}
	if len(c) == 0 {
		return 0, false
	}
	return hw.PhysAddr(uint64(c[s.r.Intn(len(c))]) * hw.PageSize4K), true
}

// step performs one random allocator transition.
func (s *scanModel) step() {
	a, cc := s.a, s.cc
	cached := cc.Pages()
	mapped := func(f int, m refMeta) bool { return m.State == StateMapped }
	var err error
	switch op := s.r.Intn(12); op {
	case 0, 1:
		s.owner = Owner(s.r.Intn(int(OwnerPCache) + 1)) // every owner
		_, err = a.AllocPage4K(s.owner)
	case 2:
		if p, ok := s.pick(func(f int, m refMeta) bool {
			return m.State == StateAllocated && f >= scanReserved && !cached.Contains(hw.PhysAddr(uint64(f)*hw.PageSize4K))
		}); ok {
			err = a.FreePage(p)
		}
	case 3:
		_, err = a.AllocUserPage4K()
	case 4:
		if p, ok := s.pick(mapped); ok {
			err = a.IncRef(p)
		}
	case 5:
		if p, ok := s.pick(mapped); ok {
			_, err = a.DecRef(p)
		}
	case 6:
		_, _, err = cc.AllocUser4K(s.r.Intn(2))
	case 7:
		if p, ok := s.pick(func(f int, m refMeta) bool {
			return m.State == StateMapped && m.RefCount == 1 && m.Size == Size4K
		}); ok {
			_, err = cc.FreeUser4K(s.r.Intn(2), p)
		}
	case 8:
		if s.r.Intn(4) == 0 {
			err = cc.Drain()
		}
	case 9:
		var h hw.PhysAddr
		if h, err = a.Merge2M(); err == nil {
			hf := int32(h / hw.PageSize4K)
			for f := hf; f < hf+hw.Pages4KPer2M; f++ {
				s.m[f] = refMeta{State: StateMerged, Size: Size2M, Owner: OwnerNone, Head: hf}
			}
			s.m[hf] = refMeta{State: StateFree, Size: Size2M, Owner: OwnerNone, Head: nilIdx}
		} else if errors.Is(err, ErrNotMergeable) {
			err = nil
		}
	case 10:
		if p, ok := s.pick(func(f int, m refMeta) bool { return m.State == StateFree && m.Size == Size2M }); ok {
			if err = a.Split(p); err == nil {
				pf := int(p / hw.PageSize4K)
				for f := pf; f < pf+hw.Pages4KPer2M; f++ {
					s.m[f] = refMeta{State: StateFree, Size: Size4K, Owner: OwnerNone, Head: nilIdx}
				}
			}
		}
	case 11:
		if _, err = a.AllocUserPage(Size2M); errors.Is(err, ErrOutOfMemory) {
			err = nil
		}
	}
	if errors.Is(err, ErrOutOfMemory) {
		err = nil
	}
	if err != nil {
		s.t.Fatal(err)
	}
}

// refScan is the naive per-frame reference for the fused scan: the
// eight Snapshot sets, in Snapshot's field order, then one closure per
// owner.
func (s *scanModel) refScan() (snap [8]PageSet, owned [OwnerPCache + 1]PageSet) {
	for i := range snap {
		snap[i] = NewPageSet()
	}
	for i := range owned {
		owned[i] = NewPageSet()
	}
	for f, m := range s.m {
		p := hw.PhysAddr(uint64(f) * hw.PageSize4K)
		switch m.State {
		case StateFree:
			snap[m.Size].Insert(p) // Free4K, Free2M, Free1G
		case StateAllocated:
			owned[m.Owner].Insert(p)
			if m.Owner == OwnerBoot {
				snap[6].Insert(p)
			} else {
				snap[3].Insert(p)
				if m.Owner == OwnerPCache {
					snap[7].Insert(p)
				}
			}
		case StateMapped:
			snap[4].Insert(p)
		case StateMerged:
			snap[5].Insert(p)
		}
	}
	return snap, owned
}

// sameSet compares members and the cached cardinality of got with want.
func sameSet(t *testing.T, what string, got, want PageSet) {
	t.Helper()
	g, w := got.Sorted(), want.Sorted()
	if got.Len() != len(g) || !slices.Equal(g, w) {
		t.Fatalf("%s: got %d pages %v, want %v", what, got.Len(), g, w)
	}
}

// check compares the fused scan's every output and Meta of every frame
// against the reference.
func (s *scanModel) check(step int) {
	t, a := s.t, s.a
	for f, want := range s.m {
		got, err := a.Meta(hw.PhysAddr(uint64(f) * hw.PageSize4K))
		if err != nil {
			t.Fatal(err)
		}
		if g := (refMeta{got.State, got.Size, got.Owner, got.RefCount, got.Head}); g != want {
			t.Fatalf("step %d: frame %d meta %+v, want %+v", step, f, g, want)
		}
	}
	refSnap, refOwned := s.refScan()
	snap, cl := a.SnapshotClosures()
	for _, sn := range []Snapshot{a.Snapshot(), snap} {
		got := [8]PageSet{sn.Free4K, sn.Free2M, sn.Free1G, sn.Allocated, sn.Mapped, sn.Merged, sn.Boot, sn.PCache}
		for i, name := range []string{"Free4K", "Free2M", "Free1G", "Allocated", "Mapped", "Merged", "Boot", "PCache"} {
			sameSet(t, fmt.Sprintf("step %d %s", step, name), got[i], refSnap[i])
		}
	}
	sameSet(t, fmt.Sprintf("step %d ProcessMgr closure", step), cl.ProcessMgr, refOwned[OwnerProcessMgr])
	sameSet(t, fmt.Sprintf("step %d PageTable closure", step), cl.PageTable, refOwned[OwnerPageTable])
	sameSet(t, fmt.Sprintf("step %d IOMMU closure", step), cl.IOMMU, refOwned[OwnerIOMMU])
	for o := range refOwned {
		sameSet(t, fmt.Sprintf("step %d AllocatedTo(%v)", step, Owner(o)), a.AllocatedTo(Owner(o)), refOwned[o])
	}
	if err := a.CheckFreeList(Size4K, snap.Free4K); err != nil {
		t.Fatalf("step %d: 4K free list: %v", step, err)
	}
	if err := a.CheckFreeList(Size2M, snap.Free2M); err != nil {
		t.Fatalf("step %d: 2M free list: %v", step, err)
	}
}

// TestScanMatchesReference is the differential test for the packed page
// kinds and the fused scan: random allocator histories over 20 seeds,
// every output compared with the per-frame reference after every step.
// Frame counts vary so the scan's partial last word and partial last
// group of eight are both exercised.
func TestScanMatchesReference(t *testing.T) {
	const steps = 300
	for seed := int64(0); seed < 20; seed++ {
		frames := 2048 + int(seed*13%64)
		t.Run(fmt.Sprintf("seed%d-frames%d", seed, frames), func(t *testing.T) {
			s := newScanModel(t, seed, frames)
			s.check(-1)
			for i := 0; i < steps; i++ {
				s.step()
				s.check(i)
			}
		})
	}
}

func TestCheckFreeListFailures(t *testing.T) {
	var clk hw.Clock
	a := NewAllocator(hw.NewPhysMem(64), &clk, 1)
	snap := a.Snapshot()
	if err := a.CheckFreeList(Size4K, snap.Free4K); err != nil {
		t.Fatalf("clean list: %v", err)
	}
	// A free page missing from the list.
	if err := a.UnlinkFreeForTest(hw.PhysAddr(9 * hw.PageSize4K)); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckFreeList(Size4K, snap.Free4K); !errors.Is(err, ErrFreeListMismatch) {
		t.Fatalf("short list: got %v", err)
	}
	// A list node outside the set.
	if err := a.CheckFreeList(Size4K, a.Snapshot().Free2M); !errors.Is(err, ErrFreeListMismatch) {
		t.Fatalf("foreign node: got %v", err)
	}
	// A cycle terminates with its own error.
	if err := a.CycleFreeListForTest(hw.PhysAddr(40 * hw.PageSize4K)); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckFreeList(Size4K, a.Snapshot().Free4K); !errors.Is(err, ErrFreeListCycle) {
		t.Fatalf("cycle: got %v", err)
	}
}
