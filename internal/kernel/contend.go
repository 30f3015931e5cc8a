package kernel

import (
	"atmosphere/internal/obs/contend"
)

// Contention-observatory glue (internal/obs/contend). The big lock
// registers as the frontier "big/kernel"; container and endpoint shards
// register as "container/<name>" and "endpoint/<name>" frontiers as
// their plans first touch them (shard.go). enterWith reports every
// acquisition into the observatory (and, when the lock-order checker is
// armed, validates it against the declared ordering), and leave
// attributes each held frontier's wait cycles to the (syscall,
// container, core) the funnel resolved meanwhile. RaiseIRQ attributes
// under the pseudo-syscall "irq". Like the tracer and the ledger, the
// observatory only reads state — attaching it never changes a charged
// cycle.

// AttachContention wires a contention observatory into the kernel: the
// big lock is named (class "big", instance "kernel", unless an identity
// was already set) and registered as a frontier, every existing shard
// registers in creation order (new shards register as they are
// created), the root container gets its display name, the scheduler's
// run-queue delay stream is attached, and — when AttachObs already
// wired a tracer or metrics registry — the observatory's counter tracks
// and gauges register there too. Pass nil to detach.
func (k *Kernel) AttachContention(o *contend.Observatory) {
	k.big.Lock()
	defer k.big.Unlock()
	k.cobs = o
	k.cSys, k.cCntr = "", 0
	if o == nil {
		k.lock.SetObserver(nil)
		for _, s := range k.shards {
			s.sim.SetObserver(nil)
			s.id = -1
		}
		k.PM.SetSchedObserver(nil)
		return
	}
	if k.lock.Class() == "" {
		k.lock.SetIdentity("big", "kernel")
	}
	if k.obs != nil {
		o.AttachTrace(k.obs.trace)
	}
	k.bigID = o.Register(&k.lock)
	for _, s := range k.shards {
		s.id = o.Register(&s.sim)
	}
	o.NameContainer(k.PM.RootContainer, "root")
	if k.obs != nil && k.obs.metrics != nil {
		o.RegisterMetrics(k.obs.metrics)
	}
	k.PM.SetSchedObserver(o)
}

// Contention returns the attached observatory (nil when detached).
func (k *Kernel) Contention() *contend.Observatory { return k.cobs }

// ArmLockOrder arms the attached observatory's runtime lock-order
// checker with the kernel's declared ordering (contend.KernelOrder) for
// this machine's core count. No-op without an observatory; the checker
// stays off by default — tests and schedule exploration arm it.
func (k *Kernel) ArmLockOrder() {
	k.big.Lock()
	defer k.big.Unlock()
	if k.cobs != nil {
		k.cobs.ArmOrder(contend.KernelOrder(), k.Machine.NumCores())
	}
}
