package spec

import (
	"maps"
	"testing"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

func boot(t *testing.T) (*kernel.Kernel, pm.Ptr) {
	t.Helper()
	k, init, err := kernel.Boot(hw.Config{Frames: 2048, Cores: 2, TLBSlots: 64})
	if err != nil {
		t.Fatal(err)
	}
	return k, init
}

func abs(k *kernel.Kernel) State { return Abstract(k.PM, k.Alloc, k.IOMMU) }

func TestAbstractionIsDeepCopy(t *testing.T) {
	k, init := boot(t)
	st := abs(k)
	// Mutating the kernel afterwards must not change the snapshot.
	before := st.Containers[k.PM.RootContainer].UsedPages
	if r := k.SysMmap(0, init, 0x1000, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	if st.Containers[k.PM.RootContainer].UsedPages != before {
		t.Fatal("snapshot aliases live state")
	}
	if len(st.AddressSpaces[k.PM.Thrd(init).OwningProc]) != 0 {
		t.Fatal("snapshot address space grew")
	}
}

func TestAbstractionCoversAllObjects(t *testing.T) {
	k, init := boot(t)
	r := k.SysNewContainer(0, init, 50, []int{0})
	if r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	k.SysNewEndpoint(0, init, 3)
	st := abs(k)
	if len(st.Containers) != k.PM.CntrPerms.Len() ||
		len(st.Threads) != k.PM.ThrdPerms.Len() ||
		len(st.Endpoints) != k.PM.EdptPerms.Len() ||
		len(st.Procs) != k.PM.ProcPerms.Len() {
		t.Fatal("abstraction dropped objects")
	}
	if st.RootContainer != k.PM.RootContainer {
		t.Fatal("root pointer wrong")
	}
	// Memory snapshot partitions all frames.
	total := st.Mem.Free4K.Len() + st.Mem.Free2M.Len() + st.Mem.Free1G.Len() +
		st.Mem.Allocated.Len() + st.Mem.Mapped.Len() + st.Mem.Merged.Len() + st.Mem.Boot.Len()
	if total != k.Alloc.Frames() {
		t.Fatalf("snapshot covers %d of %d frames", total, k.Alloc.Frames())
	}
}

func TestUnchangedDetectsYield(t *testing.T) {
	k, init := boot(t)
	old := abs(k)
	if r := k.SysYield(0, init); r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	if !Unchanged(old, abs(k)) {
		t.Fatal("yield should be abstractly invisible")
	}
	if r := k.SysMmap(0, init, 0x1000, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	if Unchanged(old, abs(k)) {
		t.Fatal("mmap should be abstractly visible")
	}
}

func TestMmapSpecAcceptsAndRejects(t *testing.T) {
	k, init := boot(t)
	old := abs(k)
	ret := k.SysMmap(0, init, 0x400000, 3, hw.Size4K, pt.RW)
	new1 := abs(k)
	if err := MmapSpec(old, new1, init, 0x400000, 3, hw.Size4K, pt.RW, ret); err != nil {
		t.Fatalf("valid transition rejected: %v", err)
	}
	// Same transition claimed for the wrong count must be rejected.
	if err := MmapSpec(old, new1, init, 0x400000, 2, hw.Size4K, pt.RW, ret); err == nil {
		t.Fatal("wrong count accepted")
	}
	// Claiming the old state as the new state must be rejected.
	if err := MmapSpec(old, old, init, 0x400000, 3, hw.Size4K, pt.RW, ret); err == nil {
		t.Fatal("no-op accepted as successful mmap")
	}
	// Tampered post-state: stolen quota.
	tampered := abs(k)
	c := tampered.Containers[k.PM.RootContainer]
	c.UsedPages--
	tampered.Containers[k.PM.RootContainer] = c
	if err := MmapSpec(old, tampered, init, 0x400000, 3, hw.Size4K, pt.RW, ret); err == nil {
		t.Fatal("quota tampering accepted")
	}
}

func TestMunmapSpecFrameCondition(t *testing.T) {
	k, init := boot(t)
	if r := k.SysMmap(0, init, 0x400000, 4, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	old := abs(k)
	ret := k.SysMunmap(0, init, 0x400000, 2, hw.Size4K)
	new1 := abs(k)
	if err := MunmapSpec(old, new1, init, 0x400000, 2, hw.Size4K, ret); err != nil {
		t.Fatalf("valid munmap rejected: %v", err)
	}
	// A post-state where a surviving mapping changed is rejected.
	proc := k.PM.Thrd(init).OwningProc
	tampered := abs(k)
	space := maps.Clone(tampered.AddressSpaces[proc]) // Ψ's spaces are shared
	tampered.AddressSpaces[proc] = space
	e := space[0x402000]
	e.Phys += hw.PageSize4K
	space[0x402000] = e
	if err := MunmapSpec(old, tampered, init, 0x400000, 2, hw.Size4K, ret); err == nil {
		t.Fatal("surviving-mapping tampering accepted")
	}
}

func TestNewContainerSpecSubtreeExactness(t *testing.T) {
	k, init := boot(t)
	old := abs(k)
	ret := k.SysNewContainer(0, init, 30, []int{0})
	new1 := abs(k)
	if err := NewContainerSpec(old, new1, init, 30, []int{0}, ret); err != nil {
		t.Fatalf("valid new_container rejected: %v", err)
	}
	// Tamper: the root's subtree gained an extra phantom member.
	tampered := abs(k)
	c := tampered.Containers[k.PM.RootContainer]
	c.Subtree[Ptr(0xdead000)] = true
	tampered.Containers[k.PM.RootContainer] = c
	if err := NewContainerSpec(old, tampered, init, 30, []int{0}, ret); err == nil {
		t.Fatal("phantom subtree member accepted")
	}
}

func TestSendRecvSpecs(t *testing.T) {
	k, init := boot(t)
	r := k.SysNewThread(0, init, 0)
	other := pm.Ptr(r.Vals[0])
	re := k.SysNewEndpoint(0, init, 0)
	ep := pm.Ptr(re.Vals[0])
	k.PM.Thrd(other).Endpoints[0] = ep
	k.PM.EndpointIncRef(ep, 1)

	// Blocking recv.
	old := abs(k)
	ret := k.SysRecv(0, other, 0, kernel.RecvArgs{EdptSlot: -1})
	mid := abs(k)
	if err := RecvSpec(old, mid, other, 0, kernel.RecvArgs{EdptSlot: -1}, ret); err != nil {
		t.Fatalf("blocking recv rejected: %v", err)
	}
	// Completing send.
	ret = k.SysSend(0, init, 0, kernel.SendArgs{Regs: [4]uint64{5}})
	fin := abs(k)
	if err := SendSpec(mid, fin, init, 0, kernel.SendArgs{Regs: [4]uint64{5}}, ret); err != nil {
		t.Fatalf("completing send rejected: %v", err)
	}
	// Tampered: receiver left in the queue.
	tampered := abs(k)
	e := tampered.Endpoints[ep]
	e.Queue = append(e.Queue, other)
	tampered.Endpoints[ep] = e
	if err := SendSpec(mid, tampered, init, 0, kernel.SendArgs{Regs: [4]uint64{5}}, ret); err == nil {
		t.Fatal("stale queue accepted")
	}
}

func TestExitThreadSpec(t *testing.T) {
	k, init := boot(t)
	r := k.SysNewThread(0, init, 0)
	tid := pm.Ptr(r.Vals[0])
	old := abs(k)
	ret := k.SysExitThread(0, tid)
	new1 := abs(k)
	if err := ExitThreadSpec(old, new1, tid, ret); err != nil {
		t.Fatalf("valid exit rejected: %v", err)
	}
	// Claiming the pre-state as post-state (thread still alive) fails.
	if err := ExitThreadSpec(old, old, tid, ret); err == nil {
		t.Fatal("live thread accepted as exited")
	}
}

func TestKillContainerSpec(t *testing.T) {
	k, init := boot(t)
	r := k.SysNewContainer(0, init, 60, []int{0})
	cntr := pm.Ptr(r.Vals[0])
	rp := k.SysNewProcessIn(0, init, cntr)
	k.SysNewThreadIn(0, init, pm.Ptr(rp.Vals[0]), 0)
	old := abs(k)
	ret := k.SysKillContainer(0, init, cntr)
	new1 := abs(k)
	if err := KillContainerSpec(old, new1, init, cntr, ret); err != nil {
		t.Fatalf("valid kill rejected: %v", err)
	}
	if err := KillContainerSpec(old, old, init, cntr, ret); err == nil {
		t.Fatal("survivor accepted as killed")
	}
}

func TestFrameConditionHelpers(t *testing.T) {
	k, init := boot(t)
	a := abs(k)
	b := abs(k)
	if !ContainersUnchangedExcept(a, b) || !ThreadsUnchangedExcept(a, b) ||
		!ProcsUnchangedExcept(a, b) || !EndpointsUnchangedExcept(a, b) ||
		!SpacesUnchangedExcept(a, b) {
		t.Fatal("identical states reported different")
	}
	// A thread state change is caught unless excepted.
	th := b.Threads[init]
	th.Core = 1
	b.Threads[init] = th
	if ThreadsUnchangedExcept(a, b) {
		t.Fatal("thread change missed")
	}
	if !ThreadsUnchangedExcept(a, b, init) {
		t.Fatal("excepted thread change still reported")
	}
}

func TestSortedPtrs(t *testing.T) {
	s := map[Ptr]bool{3: true, 1: true, 2: true}
	out := SortedPtrs(s)
	if len(out) != 3 || out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("sorted = %v", out)
	}
}

func TestIommuSpecs(t *testing.T) {
	k, init := boot(t)
	old := abs(k)
	ret := k.SysIommuCreateDomain(0, init)
	mid := abs(k)
	if err := IommuCreateSpec(old, mid, init, ret); err != nil {
		t.Fatalf("valid iommu_create rejected: %v", err)
	}
	// Tampered: domain map pre-populated.
	tampered := abs(k)
	dom := tampered.Procs[k.PM.Thrd(init).OwningProc].IOMMUDomain
	tampered.DMASpaces[dom] = maps.Clone(tampered.DMASpaces[dom]) // Ψ's spaces are shared
	tampered.DMASpaces[dom][0x1000] = pt.MapEntry{Phys: 0x2000}
	if err := IommuCreateSpec(old, tampered, init, ret); err == nil {
		t.Fatal("pre-populated domain accepted")
	}

	if r := k.SysMmap(0, init, 0x70000, 1, hw.Size4K, pt.RW); r.Errno != kernel.OK {
		t.Fatal(r.Errno)
	}
	old = abs(k)
	ret = k.SysIommuMap(0, init, 0x70000)
	mid = abs(k)
	if err := IommuMapSpec(old, mid, init, 0x70000, ret); err != nil {
		t.Fatalf("valid iommu_map rejected: %v", err)
	}
	// Tampered: DMA mapping points at the wrong frame.
	tampered = abs(k)
	tampered.DMASpaces[dom] = maps.Clone(tampered.DMASpaces[dom])
	e := tampered.DMASpaces[dom][0x70000]
	e.Phys += hw.PageSize4K
	tampered.DMASpaces[dom][0x70000] = e
	if err := IommuMapSpec(old, tampered, init, 0x70000, ret); err == nil {
		t.Fatal("wrong DMA frame accepted")
	}

	old = abs(k)
	ret = k.SysIommuUnmap(0, init, 0x70000)
	fin := abs(k)
	if err := IommuUnmapSpec(old, fin, init, 0x70000, ret); err != nil {
		t.Fatalf("valid iommu_unmap rejected: %v", err)
	}
	// Claiming the pre-state as post-state (still mapped) fails.
	if err := IommuUnmapSpec(old, old, init, 0x70000, ret); err == nil {
		t.Fatal("retained DMA mapping accepted")
	}
}
