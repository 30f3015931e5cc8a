package pt

import (
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"atmosphere/internal/hw"
)

// TestAddressSpaceMemo drives random map/unmap/prune histories and
// checks after every step that the memoized address space equals a
// fresh merge of the ghost maps and what the concrete tables encode,
// that a step which changed nothing hands back the same map, and that
// no map handed out earlier was ever written.
func TestAddressSpaceMemo(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		f := newFixture(t, 1024)
		type published struct{ space, copy map[hw.VirtAddr]MapEntry }
		var seen []published
		var mapped []hw.VirtAddr
		for step := 0; step < 200; step++ {
			before := f.pt.AddressSpace()
			seen = append(seen, published{before, maps.Clone(before)})
			changed := true
			switch op := r.Intn(8); {
			case op < 4 || len(mapped) == 0:
				va := hw.VirtAddr(0x40000000 + uint64(r.Intn(2048))*hw.PageSize4K)
				if va&(1<<21) != 0 && r.Intn(2) == 0 {
					va = hw.VirtAddr(1)<<39 | va // a second PML4 entry
				}
				p, err := f.alloc.AllocUserPage4K()
				if err != nil {
					t.Fatal(err)
				}
				if err := f.pt.Map4K(va, p, RW); err != nil {
					changed = false // already mapped
				} else {
					mapped = append(mapped, va)
				}
			case op < 7:
				i := r.Intn(len(mapped))
				if _, err := f.pt.Unmap(mapped[i]); err != nil {
					t.Fatal(err)
				}
				mapped = append(mapped[:i], mapped[i+1:]...)
			default:
				changed = f.pt.PruneEmpty() > 0
			}
			if err := f.pt.CheckMemo(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			after := f.pt.AddressSpace()
			if same := reflect.ValueOf(after).Pointer() == reflect.ValueOf(before).Pointer(); same == changed {
				t.Fatalf("seed %d step %d: changed=%v but map reused=%v", seed, step, changed, same)
			}
			if got := f.pt.Enumerate(); !maps.Equal(got, after) {
				t.Fatalf("seed %d step %d: concrete tables hold %d mappings, memo %d", seed, step, len(got), len(after))
			}
			f.checkAll(t)
		}
		for i, p := range seen {
			if !maps.Equal(p.space, p.copy) {
				t.Fatalf("seed %d: published map %d was written after publication", seed, i)
			}
		}
	}
}

// TestMissedGhostBumpCaught plants a ghost-map write that skips the
// generation bump and requires CheckMemo to report the stale memo.
func TestMissedGhostBumpCaught(t *testing.T) {
	f := newFixture(t, 64)
	if err := f.pt.Map4K(0x40000000, f.userPage(t), RW); err != nil {
		t.Fatal(err)
	}
	if err := f.pt.CheckMemo(); err != nil {
		t.Fatal(err)
	}
	f.pt.ghost4K[0x40001000] = MapEntry{Phys: f.userPage(t), Size: hw.Size4K, Perm: RW} // no bump
	if err := f.pt.CheckMemo(); err == nil {
		t.Fatal("ghost-map write without a generation bump went unnoticed")
	}
}

// TestMappedPages4K checks the size-weighted mapping count against the
// merged address space.
func TestMappedPages4K(t *testing.T) {
	f := newFixture(t, 2048)
	for i := 0; i < 5; i++ {
		if err := f.pt.Map4K(hw.VirtAddr(0x40000000+i*hw.PageSize4K), f.userPage(t), RW); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.pt.Map2M(0x80000000, 0x200000, RW); err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, e := range f.pt.AddressSpace() {
		want += e.Size.Bytes() / hw.PageSize4K
	}
	if got := f.pt.MappedPages4K(); got != want || want != 5+hw.Pages4KPer2M {
		t.Fatalf("MappedPages4K = %d, address space sums to %d", got, want)
	}
}
