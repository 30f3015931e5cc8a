package spec

import (
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pt"
)

// BenchmarkAbstract measures Ψ = Abstract on mck's default machine
// (8192 frames, 4 cores) holding 64 mapped pages and four child
// processes. Nothing changes between iterations, so it measures the
// memo-hit path: the object views are copied, while the allocator
// snapshot and the address spaces come from their memos
// (verify.BenchmarkCheckedTransition measures the rebuild path).
func BenchmarkAbstract(b *testing.B) {
	k, init, err := kernel.Boot(hw.Config{Frames: 8192, Cores: 4, TLBSlots: 256})
	if err != nil {
		b.Fatal(err)
	}
	if r := k.SysMmap(0, init, 0x400000, 64, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		b.Fatal(r.Errno)
	}
	for i := 0; i < 4; i++ {
		if r := k.SysNewProcess(0, init); r.Errno != kernel.OK {
			b.Fatal(r.Errno)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := Abstract(k.PM, k.Alloc, k.IOMMU); st.Mem.Mapped.Len() != 64 {
			b.Fatalf("abstract state has %d mapped pages, want 64", st.Mem.Mapped.Len())
		}
	}
}
