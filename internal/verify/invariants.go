// Package verify is the repository's substitute for Verus: the executable
// checker for Atmosphere's two theorems (§4) — refinement (every syscall
// satisfies its specification, internal/spec) and well-formedness (the
// global invariants hold after every transition).
//
// The invariants are written in the paper's flat, non-recursive style:
// single passes over the flat permission tables (§4.1). Recursive variants
// of the structural invariants live in recursive.go, used only by the
// flat-vs-recursive ablation (§6.2).
package verify

import (
	"errors"
	"fmt"
	"sync"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/mem"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// each runs fn over a permission table in ascending pointer order and
// stops at the first error, so a failing check names the lowest
// offending object.
func each[T any](t *pm.Table[T], fn func(pm.Ptr, *T) error) error {
	var err error
	t.All()(func(p pm.Ptr, v *T) bool {
		err = fn(p, v)
		return err == nil
	})
	return err
}

// insertPtrs adds every live pointer of t to s.
func insertPtrs[T any](s mem.PageSet, t *pm.Table[T]) {
	t.All()(func(p pm.Ptr, _ *T) bool {
		s.Insert(p)
		return true
	})
}

// ContainerTreeWF is the flat structural invariant of the container tree
// (container_tree_wf, §4.1): parent/child symmetry, depth and path
// coherence, the path-prefix property, and subtree ghost exactness —
// all expressed as direct loops over the flat container table.
func ContainerTreeWF(k *kernel.Kernel) error {
	cm := &k.PM.CntrPerms
	root, ok := cm.Get(k.PM.RootContainer)
	if !ok {
		return fmt.Errorf("root container has no permission entry")
	}
	if root.Parent != 0 || root.Depth != 0 || len(root.Path) != 0 {
		return fmt.Errorf("root container malformed")
	}
	if err := each(cm, func(ptr pm.Ptr, c *pm.Container) error {
		if ptr == k.PM.RootContainer {
			return nil
		}
		p, ok := cm.Get(c.Parent)
		if !ok {
			return fmt.Errorf("container %#x has dead parent %#x", ptr, c.Parent)
		}
		found := 0
		for _, ch := range p.Children {
			if ch == ptr {
				found++
			}
		}
		if found != 1 {
			return fmt.Errorf("container %#x appears %d times in parent's children", ptr, found)
		}
		if c.Depth != p.Depth+1 {
			return fmt.Errorf("container %#x depth %d, parent depth %d", ptr, c.Depth, p.Depth)
		}
		if len(c.Path) != c.Depth {
			return fmt.Errorf("container %#x path length %d != depth %d", ptr, len(c.Path), c.Depth)
		}
		if len(c.Path) == 0 || c.Path[len(c.Path)-1] != c.Parent {
			return fmt.Errorf("container %#x path does not end at parent", ptr)
		}
		return nil
	}); err != nil {
		return err
	}
	// resolve_path_wf (§4.1): for any node n at depth d on c's path,
	// c's subpath [0,d) equals n's path — checked flatly for all pairs.
	if err := each(cm, func(ptr pm.Ptr, c *pm.Container) error {
		for d, n := range c.Path {
			nc, ok := cm.Get(n)
			if !ok {
				return fmt.Errorf("container %#x path names dead container %#x", ptr, n)
			}
			if len(nc.Path) != d {
				return fmt.Errorf("container %#x path[%d] has depth %d", ptr, d, len(nc.Path))
			}
			for i := 0; i < d; i++ {
				if nc.Path[i] != c.Path[i] {
					return fmt.Errorf("container %#x path prefix mismatch at %d", ptr, i)
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Children lists reference live containers whose parent is this one,
	// and no container is the child of two parents.
	childOf := make(map[pm.Ptr]pm.Ptr, cm.Len())
	if err := each(cm, func(ptr pm.Ptr, c *pm.Container) error {
		for _, ch := range c.Children {
			cc, ok := cm.Get(ch)
			if !ok {
				return fmt.Errorf("container %#x lists dead child %#x", ptr, ch)
			}
			if cc.Parent != ptr {
				return fmt.Errorf("child %#x parent pointer disagrees", ch)
			}
			if prev, dup := childOf[ch]; dup {
				return fmt.Errorf("container %#x child of both %#x and %#x", ch, prev, ptr)
			}
			childOf[ch] = ptr
		}
		return nil
	}); err != nil {
		return err
	}
	// Subtree ghost exactness, the flat way (§4.1): no per-node set
	// reconstruction. Two facts pin the ghost down exactly:
	//
	//  1. containment: every node appears in the subtree of each of its
	//     path ancestors (direct membership probes into the flat tables);
	//  2. counting: Σ|c.Subtree| over all containers equals Σ depth(n)
	//     over all nodes — each node belongs to exactly its depth(n)
	//     ancestors' subtrees, so (1) plus this total rules out any
	//     extra member anywhere.
	//
	// Together with the path coherence above, this is equivalent to the
	// recursive union definition without ever materializing a set.
	totalGhost := 0
	totalDepth := 0
	if err := each(cm, func(ptr pm.Ptr, c *pm.Container) error {
		totalGhost += len(c.Subtree)
		totalDepth += c.Depth
		for _, anc := range c.Path {
			a, _ := cm.Get(anc)
			if _, ok := a.Subtree[ptr]; !ok {
				return fmt.Errorf("ancestor %#x subtree missing descendant %#x", anc, ptr)
			}
		}
		// Members of a subtree must at least be live containers.
		for s := range c.Subtree {
			if _, ok := cm.Get(s); !ok {
				return fmt.Errorf("container %#x subtree holds dead container %#x", ptr, s)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if totalGhost != totalDepth {
		return fmt.Errorf("subtree ghosts hold %d memberships, path depths say %d",
			totalGhost, totalDepth)
	}
	return nil
}

// ProcessesWF checks the process objects and the per-container process
// trees: ownership symmetry, parent/child symmetry within one container,
// and the owned_thrds ghost exactness.
func ProcessesWF(k *kernel.Kernel) error {
	pmgr := k.PM
	if err := each(&pmgr.ProcPerms, func(ptr pm.Ptr, p *pm.Process) error {
		c, ok := pmgr.CntrPerms.Get(p.Owner)
		if !ok {
			return fmt.Errorf("process %#x has dead owner %#x", ptr, p.Owner)
		}
		if _, ok := c.Procs[ptr]; !ok {
			return fmt.Errorf("container %#x does not list process %#x", p.Owner, ptr)
		}
		if p.Parent != 0 {
			pp, ok := pmgr.ProcPerms.Get(p.Parent)
			if !ok {
				return fmt.Errorf("process %#x has dead parent %#x", ptr, p.Parent)
			}
			if pp.Owner != p.Owner {
				return fmt.Errorf("process %#x parent in different container", ptr)
			}
			found := 0
			for _, ch := range pp.Children {
				if ch == ptr {
					found++
				}
			}
			if found != 1 {
				return fmt.Errorf("process %#x appears %d times in parent children", ptr, found)
			}
		}
		for _, ch := range p.Children {
			cp, ok := pmgr.ProcPerms.Get(ch)
			if !ok || cp.Parent != ptr {
				return fmt.Errorf("process %#x child link to %#x broken", ptr, ch)
			}
		}
		for _, th := range p.Threads {
			t, ok := pmgr.ThrdPerms.Get(th)
			if !ok || t.OwningProc != ptr {
				return fmt.Errorf("process %#x thread link to %#x broken", ptr, th)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Container.Procs lists only live processes owned by it.
	return each(&pmgr.CntrPerms, func(cptr pm.Ptr, c *pm.Container) error {
		for pp := range c.Procs {
			proc, ok := pmgr.ProcPerms.Get(pp)
			if !ok || proc.Owner != cptr {
				return fmt.Errorf("container %#x lists foreign/dead process %#x", cptr, pp)
			}
		}
		// owned_thrds ghost == union of the threads of its processes.
		want := make(map[pm.Ptr]struct{})
		for pp := range c.Procs {
			proc, _ := pmgr.ProcPerms.Get(pp)
			for _, th := range proc.Threads {
				want[th] = struct{}{}
			}
		}
		if len(want) != len(c.OwnedThreads) {
			return fmt.Errorf("container %#x owned_thrds has %d, want %d",
				cptr, len(c.OwnedThreads), len(want))
		}
		for th := range want {
			if _, ok := c.OwnedThreads[th]; !ok {
				return fmt.Errorf("container %#x owned_thrds missing %#x", cptr, th)
			}
		}
		return nil
	})
}

// ThreadsWF is the paper's threads_wf: every thread is well-formed —
// live ownership links, a core within the container's reservation, and
// blocking state consistent with exactly one endpoint queue.
func ThreadsWF(k *kernel.Kernel) error {
	pmgr := k.PM
	queued := make(map[pm.Ptr]pm.Ptr) // thread -> endpoint that queues it
	if err := each(&pmgr.EdptPerms, func(eptr pm.Ptr, e *pm.Endpoint) error {
		for _, th := range e.Queue {
			if prev, dup := queued[th]; dup {
				return fmt.Errorf("thread %#x queued on both %#x and %#x", th, prev, eptr)
			}
			queued[th] = eptr
		}
		return nil
	}); err != nil {
		return err
	}
	return each(&pmgr.ThrdPerms, func(ptr pm.Ptr, t *pm.Thread) error {
		p, ok := pmgr.ProcPerms.Get(t.OwningProc)
		if !ok {
			return fmt.Errorf("thread %#x has dead process %#x", ptr, t.OwningProc)
		}
		if t.OwningCntr != p.Owner {
			return fmt.Errorf("thread %#x owning_cntr ghost stale", ptr)
		}
		c, _ := pmgr.CntrPerms.Get(p.Owner)
		coreOK := false
		for _, cpu := range c.CPUs {
			if cpu == t.Core {
				coreOK = true
			}
		}
		if !coreOK {
			return fmt.Errorf("thread %#x on unreserved core %d", ptr, t.Core)
		}
		for i, e := range t.Endpoints {
			if e == pm.NoEndpoint {
				continue
			}
			if _, ok := pmgr.EdptPerms.Get(e); !ok {
				return fmt.Errorf("thread %#x slot %d references dead endpoint %#x", ptr, i, e)
			}
		}
		switch t.State {
		case pm.ThreadBlockedSend, pm.ThreadBlockedRecv:
			ep, ok := pmgr.EdptPerms.Get(t.IPC.WaitingOn)
			if !ok {
				return fmt.Errorf("blocked thread %#x waits on dead endpoint", ptr)
			}
			if q, isQ := queued[ptr]; !isQ || q != t.IPC.WaitingOn {
				return fmt.Errorf("blocked thread %#x not queued on its endpoint", ptr)
			}
			wantRecv := t.State == pm.ThreadBlockedRecv
			if ep.QueuedRecv != wantRecv {
				return fmt.Errorf("thread %#x direction disagrees with endpoint queue", ptr)
			}
		case pm.ThreadExited:
			return fmt.Errorf("exited thread %#x still has a permission entry", ptr)
		default:
			if _, isQ := queued[ptr]; isQ {
				return fmt.Errorf("non-blocked thread %#x sits in an endpoint queue", ptr)
			}
			if t.IPC.WaitingOn != 0 {
				return fmt.Errorf("non-blocked thread %#x has WaitingOn set", ptr)
			}
		}
		return nil
	})
}

// EndpointsWF: refcounts equal the number of descriptor slots referencing
// the endpoint, owners are live, queues are homogeneous and reference
// blocked threads.
func EndpointsWF(k *kernel.Kernel) error {
	pmgr := k.PM
	refs := make(map[pm.Ptr]int, pmgr.EdptPerms.Len())
	pmgr.ThrdPerms.All()(func(_ pm.Ptr, t *pm.Thread) bool {
		for _, e := range t.Endpoints {
			if e != pm.NoEndpoint {
				refs[e]++
			}
		}
		return true
	})
	// IRQ bindings hold endpoint references too (§3: interrupt
	// dispatch delivers to user-level drivers through endpoints).
	for irq, e := range k.IRQBindings() {
		if _, ok := pmgr.EdptPerms.Get(e); !ok {
			return fmt.Errorf("irq %d bound to dead endpoint %#x", irq, e)
		}
		refs[e]++
	}
	return each(&pmgr.EdptPerms, func(eptr pm.Ptr, e *pm.Endpoint) error {
		if _, ok := pmgr.CntrPerms.Get(e.OwnerCntr); !ok {
			return fmt.Errorf("endpoint %#x owned by dead container", eptr)
		}
		if refs[eptr] != e.RefCount {
			return fmt.Errorf("endpoint %#x refcount %d, descriptors %d",
				eptr, e.RefCount, refs[eptr])
		}
		if e.RefCount <= 0 {
			return fmt.Errorf("endpoint %#x alive with refcount %d", eptr, e.RefCount)
		}
		seen := make(map[pm.Ptr]bool, len(e.Queue))
		for _, th := range e.Queue {
			if seen[th] {
				return fmt.Errorf("endpoint %#x queues thread %#x twice", eptr, th)
			}
			seen[th] = true
			t, ok := pmgr.ThrdPerms.Get(th)
			if !ok {
				return fmt.Errorf("endpoint %#x queues dead thread %#x", eptr, th)
			}
			want := pm.ThreadBlockedSend
			if e.QueuedRecv {
				want = pm.ThreadBlockedRecv
			}
			if t.State != want {
				return fmt.Errorf("endpoint %#x queues %v thread %#x", eptr, t.State, th)
			}
		}
		return nil
	})
}

// SchedulerWF: run queues hold exactly the runnable threads of their
// core, currents are running, and no thread appears twice.
func SchedulerWF(k *kernel.Kernel) error {
	s := k.PM.Sched()
	placed := make(map[pm.Ptr]placement)
	for core := 0; core < s.Cores(); core++ {
		for _, th := range s.Queue(core) {
			t, ok := k.PM.TryThrd(th)
			if !ok {
				return fmt.Errorf("core %d queues dead thread %#x", core, th)
			}
			if t.State != pm.ThreadRunnable {
				return fmt.Errorf("core %d queues %v thread %#x", core, t.State, th)
			}
			if t.Core != core {
				return fmt.Errorf("thread %#x on core %d queue but affine to %d", th, core, t.Core)
			}
			if where, dup := placed[th]; dup {
				return fmt.Errorf("thread %#x placed twice (%s)", th, where)
			}
			placed[th] = placement{false, core}
		}
		if cur := s.Current(core); cur != 0 {
			t, ok := k.PM.TryThrd(cur)
			if !ok {
				return fmt.Errorf("core %d runs dead thread %#x", core, cur)
			}
			if t.State != pm.ThreadRunning || t.Core != core {
				return fmt.Errorf("core %d current %#x is %v/core %d", core, cur, t.State, t.Core)
			}
			if where, dup := placed[cur]; dup {
				return fmt.Errorf("thread %#x placed twice (%s)", cur, where)
			}
			placed[cur] = placement{true, core}
		}
	}
	// Every runnable/running thread is placed exactly once.
	return each(&k.PM.ThrdPerms, func(ptr pm.Ptr, t *pm.Thread) error {
		switch t.State {
		case pm.ThreadRunnable, pm.ThreadRunning:
			if _, ok := placed[ptr]; !ok {
				return fmt.Errorf("%v thread %#x lost by the scheduler", t.State, ptr)
			}
		}
		return nil
	})
}

// placement is where SchedulerWF found a thread: a core's run queue or
// its current slot.
type placement struct {
	current bool
	core    int
}

// String formats the placement for SchedulerWF's error.
func (p placement) String() string {
	if p.current {
		return fmt.Sprintf("current %d", p.core)
	}
	return fmt.Sprintf("queue %d", p.core)
}

// MemoryWF is the §4.2 safety and leak-freedom theorem, executably:
// the page-state partition, per-subsystem closure exactness and pairwise
// disjointness, mapping reference-count exactness, and per-table radix
// structure and refinement.
func MemoryWF(k *kernel.Kernel) error {
	sc := memPool.Get().(*memScratch)
	defer memPool.Put(sc)
	sc.reset(k.Alloc.Frames())
	// One pass over the page metadata yields the page-state sets and
	// the owner closures checked below.
	snap, owned := k.Alloc.SnapshotClosures()
	total := snap.Free4K.Len() + snap.Free2M.Len() + snap.Free1G.Len() +
		snap.Allocated.Len() + snap.Mapped.Len() + snap.Merged.Len() + snap.Boot.Len()
	if total != k.Alloc.Frames() {
		return fmt.Errorf("page states cover %d of %d frames", total, k.Alloc.Frames())
	}
	// Free lists agree with the metadata: each list is walked against
	// its snapshot set.
	for _, fl := range [...]struct {
		name string
		sc   mem.SizeClass
		set  mem.PageSet
	}{{"4K", mem.Size4K, snap.Free4K}, {"2M", mem.Size2M, snap.Free2M}} {
		switch err := k.Alloc.CheckFreeList(fl.sc, fl.set); {
		case errors.Is(err, mem.ErrFreeListCycle):
			return fmt.Errorf("%s free list has a cycle", fl.name)
		case err != nil:
			return fmt.Errorf("%s free list disagrees with page states", fl.name)
		}
	}
	// Process-manager closure: exactly the object pages.
	objPages := sc.obj
	insertPtrs(objPages, &k.PM.CntrPerms)
	insertPtrs(objPages, &k.PM.ProcPerms)
	insertPtrs(objPages, &k.PM.ThrdPerms)
	insertPtrs(objPages, &k.PM.EdptPerms)
	pmOwned := owned.ProcessMgr
	if !objPages.Equal(pmOwned) {
		return fmt.Errorf("process-manager closure %d pages, allocator says %d",
			objPages.Len(), pmOwned.Len())
	}
	// Virtual-memory closure: union of per-process table closures,
	// pairwise disjoint.
	ptPages := sc.pt
	if err := each(&k.PM.ProcPerms, func(ptr pm.Ptr, proc *pm.Process) error {
		cl := proc.PageTable.Nodes()
		if !cl.Disjoint(ptPages) {
			return fmt.Errorf("page-table closure of %#x overlaps another", ptr)
		}
		ptPages.Union(cl)
		return nil
	}); err != nil {
		return err
	}
	ptOwned := owned.PageTable
	if !ptPages.Equal(ptOwned) {
		return fmt.Errorf("page-table closure %d pages, allocator says %d",
			ptPages.Len(), ptOwned.Len())
	}
	// IOMMU closure: the root context page and every domain's nodes.
	iommuOwned := owned.IOMMU
	iommuPages := k.IOMMU.UnionClosure(sc.iommu)
	if !iommuPages.Equal(iommuOwned) {
		return fmt.Errorf("iommu closure disagrees with allocator")
	}
	// Page-cache closure: the frames the kernel believes are parked in
	// per-core caches are exactly the allocator's OwnerPCache pages
	// (both empty while caches are disabled).
	pcacheOwned := snap.PCache
	pcacheKernel := k.PageCachePages()
	if !pcacheKernel.Equal(pcacheOwned) {
		return fmt.Errorf("page-cache closure %d pages, allocator says %d",
			pcacheKernel.Len(), pcacheOwned.Len())
	}
	// Closures are pairwise disjoint (owners distinct by construction;
	// verify anyway) and cover the allocated set.
	if !objPages.Disjoint(ptPages) || !objPages.Disjoint(iommuOwned) || !ptPages.Disjoint(iommuOwned) {
		return fmt.Errorf("subsystem closures overlap")
	}
	if !pcacheOwned.Disjoint(objPages) || !pcacheOwned.Disjoint(ptPages) || !pcacheOwned.Disjoint(iommuOwned) {
		return fmt.Errorf("page-cache closure overlaps another subsystem")
	}
	union := sc.union.Union(objPages).Union(ptPages).Union(iommuOwned).Union(pcacheOwned)
	if !union.Equal(snap.Allocated) {
		return fmt.Errorf("closures cover %d pages, allocated set has %d",
			union.Len(), snap.Allocated.Len())
	}
	// Mapping reference counts: every mapped page's refcount equals the
	// number of address-space mappings + DMA mappings + in-flight IPC
	// messages holding it.
	countRef := func(_ hw.VirtAddr, e pt.MapEntry) { sc.ref(e.Phys) }
	k.PM.ProcPerms.All()(func(_ pm.Ptr, proc *pm.Process) bool {
		proc.PageTable.EachMapping(countRef)
		return true
	})
	for _, d := range k.IOMMU.Domains() {
		d.Table.EachMapping(countRef)
	}
	k.PM.ThrdPerms.All()(func(_ pm.Ptr, t *pm.Thread) bool {
		if t.State == pm.ThreadBlockedSend && t.IPC.Msg.HasPage {
			sc.ref(t.IPC.Msg.Page)
		}
		return true
	})
	k.PM.EdptPerms.All()(func(_ pm.Ptr, e *pm.Endpoint) bool {
		for _, m := range e.Buffer {
			if m.HasPage {
				sc.ref(m.Page)
			}
		}
		return true
	})
	// Ascending order: the lowest bad page is the one named.
	var refErr error
	snap.Mapped.All()(func(p hw.PhysAddr) bool {
		rc, err := k.Alloc.RefCount(p)
		want := sc.take(p)
		if err == nil && rc != want {
			err = fmt.Errorf("mapped page %#x refcount %d, references %d", p, rc, want)
		}
		refErr = err
		return err == nil
	})
	if refErr != nil {
		return refErr
	}
	if n := sc.referenced + len(sc.other); n != 0 {
		return fmt.Errorf("%d referenced pages not in mapped state", n)
	}
	// Per-table structure and refinement against the hardware MMU.
	if err := each(&k.PM.ProcPerms, func(ptr pm.Ptr, proc *pm.Process) error {
		if err := proc.PageTable.CheckStructure(); err != nil {
			return fmt.Errorf("process %#x: %w", ptr, err)
		}
		if err := proc.PageTable.CheckRefinement(k.Machine.MMU); err != nil {
			return fmt.Errorf("process %#x: %w", ptr, err)
		}
		return nil
	}); err != nil {
		return err
	}
	return k.IOMMU.CheckWF()
}

// memScratch is MemoryWF's working storage, reused across calls: the
// closure sets it rebuilds and a frame-indexed table of mapping
// references. Checks of different kernels may run concurrently
// (RunObligations), so each call takes its own from memPool.
type memScratch struct {
	obj, pt, iommu, union mem.PageSet
	// refs[f] counts the references to frame f; referenced counts the
	// frames with refs[f] > 0. other counts references to addresses no
	// frame of refs names (unaligned or beyond memory), nil until one
	// appears.
	refs       []uint32
	referenced int
	other      map[hw.PhysAddr]uint32
}

var memPool = sync.Pool{New: func() any {
	return &memScratch{obj: mem.NewPageSet(), pt: mem.NewPageSet(),
		iommu: mem.NewPageSet(), union: mem.NewPageSet()}
}}

// reset empties the scratch for a kernel with the given frame count.
func (sc *memScratch) reset(frames int) {
	for _, s := range [...]mem.PageSet{sc.obj, sc.pt, sc.iommu, sc.union} {
		s.Clear()
	}
	switch {
	case len(sc.refs) != frames:
		sc.refs = make([]uint32, frames)
	case sc.referenced != 0:
		// A check that failed left counts behind; a passing one took
		// every count back to zero.
		clear(sc.refs)
	}
	sc.referenced = 0
	clear(sc.other)
}

// ref counts one reference to page p.
func (sc *memScratch) ref(p hw.PhysAddr) {
	f := uint64(p) / hw.PageSize4K
	if uint64(p)%hw.PageSize4K != 0 || f >= uint64(len(sc.refs)) {
		if sc.other == nil {
			sc.other = make(map[hw.PhysAddr]uint32)
		}
		sc.other[p]++
		return
	}
	if sc.refs[f] == 0 {
		sc.referenced++
	}
	sc.refs[f]++
}

// take returns and forgets the references to p, an allocator page.
func (sc *memScratch) take(p hw.PhysAddr) uint32 {
	f := uint64(p) / hw.PageSize4K
	n := sc.refs[f]
	if n != 0 {
		sc.refs[f] = 0
		sc.referenced--
	}
	return n
}

// QuotaWF: every container's UsedPages is at most its quota and equals
// the recomputed charge: its own page, its objects, its user mappings
// (weighted by page size), its table nodes, and its children's quotas.
func QuotaWF(k *kernel.Kernel) error {
	pmgr := k.PM
	return each(&pmgr.CntrPerms, func(cptr pm.Ptr, c *pm.Container) error {
		if c.UsedPages > c.QuotaPages {
			return fmt.Errorf("container %#x used %d > quota %d", cptr, c.UsedPages, c.QuotaPages)
		}
		want := uint64(1) // its own object page
		for pp := range c.Procs {
			proc, _ := pmgr.ProcPerms.Get(pp)
			want += 1 // process object
			want += uint64(proc.PageTable.NodeCount())
			want += proc.PageTable.MappedPages4K()
			if proc.IOMMUDomain != 0 {
				d, err := k.IOMMU.Domain(proc.IOMMUDomain)
				if err != nil {
					return err
				}
				want += uint64(d.Table.NodeCount())
			}
		}
		want += uint64(len(c.OwnedThreads))
		pmgr.EdptPerms.All()(func(_ pm.Ptr, e *pm.Endpoint) bool {
			if e.OwnerCntr == cptr {
				want++
			}
			return true
		})
		for _, ch := range c.Children {
			cc, _ := pmgr.CntrPerms.Get(ch)
			want += cc.QuotaPages
		}
		if c.UsedPages != want {
			return fmt.Errorf("container %#x used %d, recomputed %d", cptr, c.UsedPages, want)
		}
		return nil
	})
}

// CPUReservationWF: every container's CPU set is a subset of its
// parent's, every thread runs on a core its container reserves, and no
// container reserves a core outside the machine. (This repo models CPU
// reservations as hierarchical capabilities — a child can use what its
// parent can use — rather than exclusive partitions; mixed-criticality
// configurations like A/B/V get exclusivity by construction, assigning
// disjoint sets.)
func CPUReservationWF(k *kernel.Kernel) error {
	cores := k.Machine.NumCores()
	return each(&k.PM.CntrPerms, func(ptr pm.Ptr, c *pm.Container) error {
		for _, cpu := range c.CPUs {
			if cpu < 0 || cpu >= cores {
				return fmt.Errorf("container %#x reserves nonexistent core %d", ptr, cpu)
			}
		}
		if c.Parent == 0 {
			return nil
		}
		parent, _ := k.PM.CntrPerms.Get(c.Parent)
		for _, cpu := range c.CPUs {
			held := false
			for _, pc := range parent.CPUs {
				if pc == cpu {
					held = true
				}
			}
			if !held {
				return fmt.Errorf("container %#x reserves core %d its parent does not hold", ptr, cpu)
			}
		}
		return nil
	})
}

// NamedCheck pairs an invariant with a stable name for the obligation
// registry and failure reports.
type NamedCheck struct {
	Name  string
	Check func(*kernel.Kernel) error
}

// WFChecks is the full well-formedness suite, the total_wf() of Listing 1.
func WFChecks() []NamedCheck {
	return []NamedCheck{
		{"container_tree_wf", ContainerTreeWF},
		{"processes_wf", ProcessesWF},
		{"threads_wf", ThreadsWF},
		{"endpoints_wf", EndpointsWF},
		{"scheduler_wf", SchedulerWF},
		{"cpu_reservation_wf", CPUReservationWF},
		{"memory_wf", MemoryWF},
		{"quota_wf", QuotaWF},
	}
}

// TotalWF runs the full suite and returns the first violation.
func TotalWF(k *kernel.Kernel) error {
	for _, c := range WFChecks() {
		if err := c.Check(k); err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
	}
	return nil
}
