package kernel_test

import (
	"bytes"
	"reflect"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pt"
	"atmosphere/internal/spec"
)

// TestRebootMatchesFreshBoot: a kernel rebooted in place on a dirtied
// machine is the kernel Boot returns on a new machine of that shape —
// the same memory bytes in every frame, the same core clocks and the
// same Ψ — and it reuses the machine's memory.
func TestRebootMatchesFreshBoot(t *testing.T) {
	cfg := hw.Config{Frames: 512, Cores: 2, TLBSlots: 64}
	k, init, err := kernel.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r := k.SysMmap(0, init, 0x400000, 8, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		t.Fatalf("mmap: %v", r.Errno)
	}
	k.SysYield(1, init)
	mem := k.Machine.Mem
	junk := bytes.Repeat([]byte{0xA5}, 512)
	for f := 0; f < mem.Frames(); f++ {
		mem.Write(mem.FrameAddr(f)+hw.PhysAddr(f%8*512), junk)
	}

	r, rinit, err := kernel.Reboot(k)
	if err != nil {
		t.Fatal(err)
	}
	fresh, finit, err := kernel.Boot(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if r.Machine.Mem != mem {
		t.Fatal("reboot allocated new memory instead of reusing the machine's")
	}
	if rinit != finit {
		t.Fatalf("init thread %#x after reboot, %#x after boot", rinit, finit)
	}
	for f := 0; f < mem.Frames(); f++ {
		a := mem.FrameAddr(f)
		if !bytes.Equal(mem.Read(a, hw.PageSize4K), fresh.Machine.Mem.Read(a, hw.PageSize4K)) {
			t.Fatalf("frame %d differs from a fresh boot's after reboot", f)
		}
	}
	for i := 0; i < cfg.Cores; i++ {
		if got, want := r.Machine.Core(i).Clock.Cycles(), fresh.Machine.Core(i).Clock.Cycles(); got != want {
			t.Fatalf("core %d clock %d after reboot, %d after boot", i, got, want)
		}
	}
	psiR := spec.Abstract(r.PM, r.Alloc, r.IOMMU)
	psiF := spec.Abstract(fresh.PM, fresh.Alloc, fresh.IOMMU)
	if !reflect.DeepEqual(psiR, psiF) {
		t.Fatalf("Ψ after reboot differs from a fresh boot's:\n%+v\n%+v", psiR, psiF)
	}
}
