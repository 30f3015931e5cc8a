package verify

import (
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// benchKernel boots mck's default machine (8192 frames, 4 cores) holding
// 64 mapped pages and four child processes.
func benchKernel(tb testing.TB) (*kernel.Kernel, pm.Ptr) {
	k, init, err := kernel.Boot(hw.Config{Frames: 8192, Cores: 4, TLBSlots: 256})
	if err != nil {
		tb.Fatal(err)
	}
	if r := k.SysMmap(0, init, 0x400000, 64, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		tb.Fatal(r.Errno)
	}
	for i := 0; i < 4; i++ {
		if r := k.SysNewProcess(0, init); r.Errno != kernel.OK {
			tb.Fatal(r.Errno)
		}
	}
	return k, init
}

// BenchmarkMemoryWF measures the §4.2 memory invariant on benchKernel's
// state. Nothing changes between iterations, so the allocator snapshot
// and the free-list verdicts come from their memos; the closures,
// reference counts and table walks are rechecked in full.
func BenchmarkMemoryWF(b *testing.B) {
	k, _ := benchKernel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MemoryWF(k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckedTransition measures one fully checked transition as
// Checker runs it: Ψ, the syscall, Ψ', the spec predicate and TotalWF.
// Iterations alternately map and unmap one page of the init process,
// so every step dirties the allocator and one address space.
func BenchmarkCheckedTransition(b *testing.B) {
	k, init := benchKernel(b)
	c := &Checker{K: k}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if i%2 == 0 {
			_, err = c.Mmap(0, init, 0x800000, 1, hw.Size4K, pt.RW)
		} else {
			_, err = c.Munmap(0, init, 0x800000, 1, hw.Size4K)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// TestMemoryWFAllocFree gates MemoryWF on a warm, unchanged kernel at
// zero host allocations: its sets and reference table come from reused
// scratch and the allocator snapshot from the memo.
func TestMemoryWFAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	k, _ := benchKernel(t)
	if err := MemoryWF(k); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := MemoryWF(k); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("MemoryWF allocates %.1f times per call on an unchanged kernel, want 0", n)
	}
}

// TestMemoryWFConcurrentKernels checks kernels on several goroutines at
// once, as RunObligations does: MemoryWF's pooled scratch and the page
// tables' pooled reachable-node sets must never be shared between two
// running checks. Each goroutine changes its own kernel between checks.
func TestMemoryWFConcurrentKernels(t *testing.T) {
	const workers, rounds = 4, 30
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		k, init := benchKernel(t)
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < rounds; i++ {
				va := hw.VirtAddr(0x800000 + (i%4)*hw.PageSize4K)
				if i%8 < 4 {
					k.SysMmap(0, init, va, 1, hw.Size4K, pt.RW)
				} else {
					k.SysMunmap(0, init, va, 1, hw.Size4K)
				}
				if err := MemoryWF(k); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
}
