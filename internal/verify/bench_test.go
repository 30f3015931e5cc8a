package verify

import (
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pt"
)

// BenchmarkMemoryWF measures the §4.2 memory invariant on mck's default
// machine (8192 frames, 4 cores) holding 64 mapped pages and four child
// processes.
func BenchmarkMemoryWF(b *testing.B) {
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
		if err := MemoryWF(k); err != nil {
			b.Fatal(err)
		}
	}
}
