package kernel

import (
	"fmt"

	"atmosphere/internal/obs"
	"atmosphere/internal/pm"
)

// Kernel-side observability (internal/obs). Tracepoints ride the
// syscall funnel: enterWith stamps the entry cycle, post captures the
// syscall name and errno, and leave emits one span on the invoking
// core's "kernel" track covering exactly the cycles the
// syscall charged — so summing spans reproduces the per-core clock.
// RaiseIRQ gets its own "irq" track. Everything here only reads clocks;
// attaching observability never changes a charged cycle (the bench
// guard in internal/bench asserts Table 3 is bit-identical with and
// without it).

// kobs is the kernel's per-attach observability state, guarded by the
// big lock like everything else in the kernel.
type kobs struct {
	trace   *obs.Tracer
	metrics *obs.Registry

	ktracks []obs.TrackID // per-core "kernel" span track
	itracks []obs.TrackID // per-core "irq" span track

	nKernel   obs.NameID // fallback span name for unnamed entries
	nIRQ      obs.NameID
	nDirect   obs.NameID // direct-switch instant
	nCtx      obs.NameID // context-switch instant
	nLockWait obs.NameID // big-lock contention span

	cDirect   *obs.Counter
	cCtx      *obs.Counter
	cIRQ      *obs.Counter
	cIRQDrop  *obs.Counter
	cLockWait *obs.Counter
	hLockWait *obs.Histogram

	// Per-syscall counters/histograms, interned on first use.
	sysStats map[string]*sysStat

	// In-flight syscall state: name/errno set by post, start is the
	// kernel clock at entry, base the invoking core's clock at entry
	// (unchanged until leave charges the delta). No nesting: the big
	// lock serializes entries.
	curName  string
	curErrno Errno
	curStart uint64
	curBase  uint64
	curCore  int
}

// sysStat is one syscall's metric block.
type sysStat struct {
	count  *obs.Counter
	errs   *obs.Counter
	cycles *obs.Histogram
}

// CoreName renders the canonical pid name of a core's tracks.
func CoreName(core int) string { return fmt.Sprintf("core%d", core) }

// AttachObs wires a tracer and/or metrics registry into the kernel.
// Either may be nil. Call before issuing syscalls; re-attaching resets
// the kernel-side interning state (the tracer itself keeps its ring).
func (k *Kernel) AttachObs(t *obs.Tracer, m *obs.Registry) {
	k.big.Lock()
	defer k.big.Unlock()
	if t == nil && m == nil {
		k.obs = nil
		return
	}
	o := &kobs{trace: t, metrics: m}
	if t != nil {
		for c := 0; c < k.Machine.NumCores(); c++ {
			name := CoreName(c)
			o.ktracks = append(o.ktracks, t.Track(c, name, "kernel"))
			o.itracks = append(o.itracks, t.Track(c, name, "irq"))
		}
		o.nKernel = t.Name("kernel")
		o.nIRQ = t.Name("irq")
		o.nDirect = t.Name("direct-switch")
		o.nCtx = t.Name("ctx-switch")
		o.nLockWait = t.Name("lock.wait")
	}
	if m != nil {
		o.cDirect = m.Counter("sched.direct_switch")
		o.cCtx = m.Counter("sched.ctx_switch")
		o.cIRQ = m.Counter("irq.raised")
		o.cIRQDrop = m.Counter("irq.dropped")
		o.cLockWait = m.Counter("lock.wait.count")
		o.hLockWait = m.Histogram("lock.wait.cycles", nil)
		m.Gauge("sched.steals", k.PM.Steals)
		o.sysStats = make(map[string]*sysStat)
		if t != nil {
			// Ring health: drop-oldest truncation is silent on the trace
			// itself, so surface it in the metrics dump.
			m.Gauge("trace.dropped", t.Dropped)
			m.Gauge("trace.events", func() uint64 { return uint64(t.Len()) })
			m.Gauge("trace.capacity", func() uint64 { return uint64(t.Cap()) })
		}
	}
	k.obs = o
}

// Tracer returns the attached tracer (nil when detached); subsystems
// living inside the kernel's machine (drivers, supervisor) trace
// through it.
func (k *Kernel) Tracer() *obs.Tracer {
	if k.obs == nil {
		return nil
	}
	return k.obs.trace
}

// Metrics returns the attached metrics registry (nil when detached).
func (k *Kernel) Metrics() *obs.Registry {
	if k.obs == nil {
		return nil
	}
	return k.obs.metrics
}

// obsEnter stamps the in-flight syscall state at entry (big lock held).
func (o *kobs) enter(k *Kernel, core int, kstart uint64) {
	o.curName = ""
	o.curErrno = OK
	o.curStart = kstart
	o.curBase = k.Machine.Core(core).Clock.Cycles()
	o.curCore = core
}

// obsPost captures the syscall identity; post calls it on every return
// path before the deferred leave runs.
func (o *kobs) post(name string, errno Errno) {
	o.curName = name
	o.curErrno = errno
}

// obsLeave emits the syscall's span and metrics; called from
// Kernel.leave with the cycles the syscall charged, before the big lock
// drops. The span sits on the invoking core's timeline starting at the
// core clock reading the delta is about to be charged onto.
func (o *kobs) leave(delta uint64) {
	name := o.curName
	if o.trace != nil {
		id := o.nKernel
		if name != "" {
			id = o.trace.Name(name)
		}
		o.trace.SpanArg(o.ktracks[o.curCore], id, o.curBase, o.curBase+delta, uint64(o.curErrno))
	}
	if o.metrics != nil && name != "" {
		st, ok := o.sysStats[name]
		if !ok {
			st = &sysStat{
				count:  o.metrics.Counter("syscall." + name + ".count"),
				errs:   o.metrics.Counter("syscall." + name + ".errors"),
				cycles: o.metrics.Histogram("syscall."+name+".cycles", nil),
			}
			o.sysStats[name] = st
		}
		st.count.Inc()
		if o.curErrno != OK && o.curErrno != EWOULDBLOCK {
			st.errs.Inc()
		}
		st.cycles.Observe(delta)
	}
}

// noteSwitch records a scheduler handoff inside the current syscall:
// direct (IPC fastpath handoff to the partner thread) or a full context
// switch. The instant lands mid-span at the core-timeline position
// corresponding to the kernel cycles charged so far.
func (k *Kernel) noteSwitch(direct bool, to pm.Ptr) {
	o := k.obs
	if o == nil {
		return
	}
	if o.trace != nil {
		ts := o.curBase + (k.kclock.Cycles() - o.curStart)
		name := o.nCtx
		if direct {
			name = o.nDirect
		}
		o.trace.Instant(o.ktracks[o.curCore], name, ts, uint64(to))
	}
	if direct {
		o.cDirect.Inc()
	} else {
		o.cCtx.Inc()
	}
}

// lockWait records one contended big-lock acquisition: a "lock.wait"
// span on the core's kernel track covering exactly the spin — [arrival,
// arrival+wait) on the core's own timeline, immediately preceding the
// syscall span the wait delayed — plus count and cycle-distribution
// metrics.
func (k *Kernel) lockWait(core int, arrival, wait uint64) {
	o := k.obs
	if o == nil {
		return
	}
	if o.trace != nil {
		o.trace.SpanArg(o.ktracks[core], o.nLockWait, arrival, arrival+wait, wait)
	}
	o.cLockWait.Inc()
	o.hLockWait.Observe(wait)
}

// noteIRQ records one dispatched interrupt as a span on the target
// core's irq track ([base, base+delta) of the core's timeline, arg =
// line), and counts it.
func (k *Kernel) noteIRQ(core, irq int, base, delta uint64) {
	o := k.obs
	if o == nil || delta == 0 {
		return // delta 0: the edge was filtered before dispatch
	}
	if o.trace != nil {
		o.trace.SpanArg(o.itracks[core], o.nIRQ, base, base+delta, uint64(irq))
	}
	o.cIRQ.Inc()
}

// noteIRQDropped counts an edge the fault filter swallowed.
func (k *Kernel) noteIRQDropped() {
	if k.obs != nil {
		k.obs.cIRQDrop.Inc()
	}
}
