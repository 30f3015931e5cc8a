package pm

import (
	"testing"

	"atmosphere/internal/hw"
)

// Host-time microbenchmarks of the permission tables on an 8192-frame
// machine holding 64 live objects spread across it.

func benchTable() Table[int] {
	tab := NewTable[int](8192)
	for f := 0; f < 8192; f += 128 {
		tab.Put(Ptr(f)*hw.PageSize4K, new(int))
	}
	return tab
}

func BenchmarkTableGet(b *testing.B) {
	tab := benchTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tab.Get(Ptr(i&8191) * hw.PageSize4K); ok != (i&127 == 0) {
			b.Fatal("lookup disagrees with the fill")
		}
	}
}

func BenchmarkTableAll(b *testing.B) {
	tab := benchTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tab.All()(func(Ptr, *int) bool {
			n++
			return true
		})
		if n != 64 {
			b.Fatalf("All yielded %d, want 64", n)
		}
	}
}
