package kernel

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/obs/contend"
	"atmosphere/internal/pm"
)

// Lock sharding (docs/CONCURRENCY.md "The sharded lock model"). The
// kernel's virtual-cost model is no longer one big-lock frontier: each
// container and each endpoint carries its own hw.LockSim frontier, and
// every syscall entry resolves a *lock plan* — the exact set of
// frontiers the operation touches — and acquires them in the declared
// DAG order (contend.KernelOrder: big -> container -> endpoint, with
// containers nested among themselves in ascending address order). The
// big lock remains only for global operations: object lifecycle
// (container/process/thread/endpoint create and destroy), IRQ paths,
// IOMMU management, and any memory operation that can reach the shared
// page-frame free lists (cache refill/drain, superpages, uncached
// boots).
//
// The real data structures are still guarded by the one Go mutex
// (Kernel.big) — sharding changes the *cost model*, not the execution
// model: which cores wait, for how long, on which virtual frontier.
// Disabled LockSims are no-ops, so with contention off every plan costs
// exactly what the big-lock funnel cost, bit for bit; and a workload
// whose syscalls all resolve to one container's frontier reproduces the
// old big-lock serialization exactly (same arrivals, same releases).
// Only genuinely disjoint traffic — different containers, different
// endpoints — overlaps in virtual time.

// lockPlan names the frontiers one syscall holds for its duration, in
// DAG order: the big lock (optional), up to two container frontiers
// (sorted by object address), and one endpoint frontier.
type lockPlan struct {
	big   bool
	cntr  [2]pm.Ptr
	ncntr int
	edpt  pm.Ptr
}

// planBig is the global-operation plan: big lock only, exactly the
// pre-sharding funnel.
func planBig() lockPlan { return lockPlan{big: true} }

// frontier is one acquired entry of a plan: the simulator, its
// observatory registration, and the wait this entry charged (filled at
// acquisition, attributed at leave).
type frontier struct {
	sim  *hw.LockSim
	id   contend.LockID
	wait uint64
}

// shard is one per-object lock frontier.
type shard struct {
	sim  hw.LockSim
	id   contend.LockID // observatory registration; -1 while detached
	salt uint64         // decorrelates the shard's jitter stream
}

// shardMix is the splitmix64 finalizer — derives per-shard jitter seeds
// from the base seed and the object address, so every frontier gets its
// own deterministic stream.
func shardMix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// armShard finishes a freshly created shard: it inherits the kernel's
// current contention enablement and jitter arming (with a decorrelated
// seed), registers with the attached observatory, and joins the shard
// list that re-attachment and Enable/SetJitter propagation iterate.
// Creation order is program order (plans resolve under the Go mutex),
// so registration order — and with it every report — is deterministic.
func (k *Kernel) armShard(s *shard, salt uint64) {
	s.id = -1
	s.salt = shardMix(salt)
	if k.lock.Enabled() {
		s.sim.Enable()
	}
	if k.jitterMax > 0 {
		s.sim.SetJitter(k.jitterSeed^s.salt, k.jitterMax)
	}
	if k.cobs != nil {
		s.id = k.cobs.Register(&s.sim)
	}
	k.shards = append(k.shards, s)
}

// cntrShard returns (lazily creating) the container's lock frontier.
// The root container is labeled "root" to match its attribution name;
// children get "c<n>" in creation order.
func (k *Kernel) cntrShard(c pm.Ptr) *shard {
	s, ok := k.cntrShards.Get(c)
	if !ok {
		s = &shard{}
		label := "root"
		if c != k.PM.RootContainer {
			k.cntrSeq++
			label = fmt.Sprintf("c%d", k.cntrSeq)
		}
		s.sim.SetIdentity("container", label)
		k.armShard(s, uint64(c))
		k.cntrShards.Put(c, s)
	}
	return s
}

// edptShard returns (lazily creating) the endpoint's lock frontier,
// labeled "e<n>" in creation order.
func (k *Kernel) edptShard(e pm.Ptr) *shard {
	s, ok := k.edptShards.Get(e)
	if !ok {
		s = &shard{}
		k.edptSeq++
		s.sim.SetIdentity("endpoint", fmt.Sprintf("e%d", k.edptSeq))
		k.armShard(s, ^uint64(e))
		k.edptShards.Put(e, s)
	}
	return s
}

// gcShards drops shard-table entries whose object died, so a reused
// page gets a fresh frontier (and a fresh label) instead of inheriting
// a dead object's. Teardown syscalls defer it. Dead shards stay
// registered with the observatory — their accumulated waits remain in
// the report (which is why -by-class aggregation exists) — and stay on
// the shard list, where re-arming them is harmless.
func (k *Kernel) gcShards() {
	k.cntrShards.All()(func(c pm.Ptr, _ *shard) bool {
		if _, ok := k.PM.TryCntr(c); !ok {
			k.cntrShards.Delete(c)
		}
		return true
	})
	k.edptShards.All()(func(e pm.Ptr, _ *shard) bool {
		if _, ok := k.PM.TryEdpt(e); !ok {
			k.edptShards.Delete(e)
		}
		return true
	})
}

// SetLockPlanFlipForTest reverses the acquisition order of every lock
// plan — endpoint before container before big — planting a cross-shard
// lock-order inversion for the armed checker to catch. Test harnesses
// only; the flip changes which frontier the checker sees first, not a
// single charged cycle's amount.
func (k *Kernel) SetLockPlanFlipForTest(v bool) {
	k.big.Lock()
	defer k.big.Unlock()
	k.planFlip = v
}

// planCaller is the plan of a syscall that touches only the caller's
// own container state (yield, and the mmap/munmap fast paths build on
// it): the caller's container frontier. An unresolvable caller falls
// back to the big lock — error paths serialize globally, which is
// conservative and keeps invalid-argument probes off the shard tables.
func (k *Kernel) planCaller(tid pm.Ptr) lockPlan {
	t, ok := k.PM.TryThrd(tid)
	if !ok {
		return planBig()
	}
	return lockPlan{cntr: [2]pm.Ptr{t.OwningCntr}, ncntr: 1}
}

// planMmap: the caller's container frontier, plus the big lock whenever
// the allocation can reach the shared free lists — no per-core caches,
// a superpage request, or a cache too shallow to cover the count
// (refill). Page-table node frames materialized by the mapping ride the
// container frontier (a documented simplification: at most a few frames
// per region lifetime).
func (k *Kernel) planMmap(core int, tid pm.Ptr, count int, size hw.PageSize) lockPlan {
	p := k.planCaller(tid)
	if p.big {
		return p
	}
	if k.caches == nil || size != hw.Size4K || count <= 0 || k.caches.Len(core) < count {
		p.big = true
	}
	return p
}

// planMunmap: the caller's container frontier, plus the big lock
// whenever a freed frame can reach the shared free lists — no caches, a
// superpage, or a cache within count of its drain threshold. A shared
// page's refcount decrement (no free-list push) stays on the container
// frontier.
func (k *Kernel) planMunmap(core int, tid pm.Ptr, count int, size hw.PageSize) lockPlan {
	p := k.planCaller(tid)
	if p.big {
		return p
	}
	if k.caches == nil || size != hw.Size4K || count <= 0 ||
		k.caches.Len(core)+count > 2*k.caches.Batch() {
		p.big = true
	}
	return p
}

// planIPC is the rendezvous plan: the caller's container, the endpoint,
// and — when the endpoint queue's head belongs to a different container
// — the partner's container too (delivery charges the receiver, direct
// switch touches the callee). The two container frontiers sort by
// object address, the total order the container self-edge in
// KernelOrder licenses.
//
// A page transfer in either direction adds the big lock only when the
// core has no page cache to draw from: the transferred frame itself
// never touches the free lists (ownership moves sender -> in-flight ->
// receiver without an alloc or a free), so only page-table node frames
// the mapping side may materialize can reach the shared pool. With
// per-core caches armed those ride the container frontiers, the same
// documented simplification planMmap makes — which is what lets batched
// grant traffic on disjoint containers scale across cores instead of
// serializing every doorbell on the global frontier. In-flight quota
// accounting rides the container frontiers already in the plan (the
// charge moves between exactly those containers).
func (k *Kernel) planIPC(core int, tid pm.Ptr, slot int, sendPage bool) lockPlan {
	t, ok := k.PM.TryThrd(tid)
	if !ok {
		return planBig()
	}
	pageBig := k.caches == nil || k.caches.Len(core) == 0
	p := lockPlan{cntr: [2]pm.Ptr{t.OwningCntr}, ncntr: 1, big: sendPage && pageBig}
	if slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] == pm.NoEndpoint {
		return p
	}
	eptr := t.Endpoints[slot]
	ep, ok := k.PM.TryEdpt(eptr)
	if !ok {
		return p
	}
	p.edpt = eptr
	if len(ep.Buffer) > 0 && ep.Buffer[0].HasPage && pageBig {
		p.big = true // buffered message carries a page a recv would map
	}
	if len(ep.Queue) > 0 {
		if qt, ok := k.PM.TryThrd(ep.Queue[0]); ok {
			if qt.OwningCntr != t.OwningCntr {
				p.cntr[1] = qt.OwningCntr
				p.ncntr = 2
				if p.cntr[1] < p.cntr[0] {
					p.cntr[0], p.cntr[1] = p.cntr[1], p.cntr[0]
				}
			}
			if !ep.QueuedRecv && qt.IPC.Msg.HasPage && pageBig {
				p.big = true // queued sender carries a page for us
			}
		}
	}
	return p
}

// planCloseEndpoint: endpoint lifecycle is a global operation (the
// object may die), so the big lock leads; the endpoint's own frontier
// is held too, so a close serializes against in-flight sends on the
// same endpoint in virtual time.
func (k *Kernel) planCloseEndpoint(tid pm.Ptr, slot int) lockPlan {
	p := planBig()
	t, ok := k.PM.TryThrd(tid)
	if !ok || slot < 0 || slot >= pm.MaxEndpoints || t.Endpoints[slot] == pm.NoEndpoint {
		return p
	}
	if _, ok := k.PM.TryEdpt(t.Endpoints[slot]); ok {
		p.edpt = t.Endpoints[slot]
	}
	return p
}
