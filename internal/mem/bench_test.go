package mem

import (
	"math/rand"
	"testing"

	"atmosphere/internal/hw"
)

func benchAlloc(b *testing.B, frames int) *Allocator {
	b.Helper()
	m := hw.NewPhysMem(frames)
	var clk hw.Clock
	return NewAllocator(m, &clk, 1)
}

func BenchmarkAllocFree4K(b *testing.B) {
	a := benchAlloc(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := a.AllocPage4K(OwnerProcessMgr)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.FreePage(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUserPageRefCycle(b *testing.B) {
	a := benchAlloc(b, 1024)
	p, err := a.AllocUserPage4K()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.IncRef(p); err != nil {
			b.Fatal(err)
		}
		if _, err := a.DecRef(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerge2MSplit(b *testing.B) {
	a := benchAlloc(b, 2*hw.Pages4KPer2M)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := a.Merge2M()
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Split(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshot(b *testing.B) {
	a := benchAlloc(b, 4096)
	for i := 0; i < 512; i++ {
		if _, err := a.AllocPage4K(OwnerProcessMgr); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := a.Snapshot()
		if s.Allocated.Len() < 512 {
			b.Fatal("snapshot lost pages")
		}
	}
}

// mixedAlloc builds an 8192-frame allocator (mck's default machine) in
// a mixed state: boot frames, a mapped 2 MiB superpage, kernel objects
// of every owner, shared user pages, per-core cached frames and free
// holes, interleaved frame by frame so few 8-frame runs are uniform.
func mixedAlloc(b *testing.B) *Allocator {
	b.Helper()
	var clk hw.Clock
	a := NewAllocator(hw.NewPhysMem(8192), &clk, 64)
	if _, err := a.Merge2M(); err != nil {
		b.Fatal(err)
	}
	if _, err := a.AllocUserPage(Size2M); err != nil {
		b.Fatal(err)
	}
	cc := NewCoreCaches(a, 4, 8)
	r := rand.New(rand.NewSource(1))
	owners := []Owner{OwnerProcessMgr, OwnerPageTable, OwnerIOMMU}
	var live []hw.PhysAddr
	for i := 0; i < 6000; i++ {
		var p hw.PhysAddr
		var err error
		switch r.Intn(4) {
		case 0:
			p, err = a.AllocPage4K(owners[r.Intn(len(owners))])
		case 1:
			if p, err = a.AllocUserPage4K(); err == nil && r.Intn(4) == 0 {
				err = a.IncRef(p)
			}
		case 2:
			p, _, err = cc.AllocUser4K(r.Intn(4))
		default:
			if len(live) == 0 {
				continue
			}
			j := r.Intn(len(live))
			p = live[j]
			live = append(live[:j], live[j+1:]...)
			m, _ := a.Meta(p)
			if m.State == StateMapped {
				for m.RefCount > 0 {
					if _, err := a.DecRef(p); err != nil {
						b.Fatal(err)
					}
					m.RefCount--
				}
			} else if err := a.FreePage(p); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if err != nil {
			b.Fatal(err)
		}
		live = append(live, p)
	}
	return a
}

// BenchmarkSnapshotMixed measures Snapshot on the mixed 8192-frame
// state of mixedAlloc, where BenchmarkSnapshot's mostly-free 4096
// frames understate the per-frame cost.
func BenchmarkSnapshotMixed(b *testing.B) {
	a := mixedAlloc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := a.Snapshot(); s.Merged.Len() != hw.Pages4KPer2M-1 {
			b.Fatalf("snapshot has %d merged frames", s.Merged.Len())
		}
	}
}
