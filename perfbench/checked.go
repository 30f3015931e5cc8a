package main

import (
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/spec"
	"atmosphere/internal/verify"
)

// The checked workload: a seeded syscall mix on the model checker's
// default machine (8192 frames, 4 cores), every transition checked the
// way verify.Checker does it — Ψ = spec.Abstract before and after the
// syscall, the syscall's spec predicate over (Ψ, Ψ'), then every
// verify.WFChecks() entry. The mix: 4 KiB mmap/munmap in a client,
// call/reply_recv from the client (container A) to a server (container
// B) with occasional page grants, and child process/thread creation,
// endpoint creation in the children, and process kill.
const (
	ckFrames   = 8192
	ckCores    = 4
	ckRounds   = 1000 // checked transitions per pass
	ckQuota    = 2048
	ckSlots    = 48 // client mapping slots
	ckSlotSpan = 16 * hw.PageSize4K
	ckCliBase  = 0x1000_0000
	ckLands    = 24 // server landing slots
	ckLandBase = 0x2000_0000
	ckChildren = 6
	ckSnapshot = 16 // traced runs call Allocator.Snapshot every this many steps
)

type ckChild struct {
	proc, tid pm.Ptr
	slots     int // endpoints created so far
}

type checked struct {
	seed    uint64
	tr      *tracer
	k       *kernel.Kernel
	gen     splitmix
	cntrA   pm.Ptr
	client  pm.Ptr
	server  pm.Ptr
	cliProc pm.Ptr

	mapped   [ckSlots]int // pages mapped at each client slot (0 = free)
	landed   [ckLands]bool
	landing  int // landing slot the parked server will receive into
	children []ckChild
	// next queues forced follow-ups: what the server does while a call
	// has it awake (unmap a granted page, then reply_recv), or a new
	// process's first thread.
	next []func() error
	deck []func(*checked) // the rest of the current deal of ckDeck
	// Counters that fix the remaining proportions: mmap sizes cycle
	// through 1..4 pages, every 4th call grants a page, and every
	// other call has the server unmap one.
	mmaps, calls int

	aligned        uint64
	lat            []uint64
	steps, failed  uint64
	within, grants uint64
}

func newChecked(seed uint64, tr *tracer) workload {
	return &checked{seed: seed, tr: tr, gen: splitmix{seed ^ 0xc3ec4ed}}
}

func (w *checked) rounds() int { return ckRounds }

func (w *checked) setup() error {
	k, init, err := boot(w.tr, ckFrames, ckCores)
	if err != nil {
		return err
	}
	w.k = k
	if w.cntrA, err = newContainer(k, w.tr, init, ckQuota, []int{0, 1}); err != nil {
		return err
	}
	cntrB, err := newContainer(k, w.tr, init, ckQuota, []int{2, 3})
	if err != nil {
		return err
	}
	thread := func(cntr pm.Ptr, core int) (pm.Ptr, pm.Ptr, error) {
		w.tr.begin(lNewProc, nil)
		rp := k.SysNewProcessIn(0, init, cntr)
		w.tr.endSys(rp)
		if rp.Errno != kernel.OK {
			return 0, 0, fmt.Errorf("process: %v", rp.Errno)
		}
		w.tr.begin(lNewThread, nil)
		rt := k.SysNewThreadIn(0, init, pm.Ptr(rp.Vals[0]), core)
		w.tr.endSys(rt)
		if rt.Errno != kernel.OK {
			return 0, 0, fmt.Errorf("thread: %v", rt.Errno)
		}
		return pm.Ptr(rp.Vals[0]), pm.Ptr(rt.Vals[0]), nil
	}
	if w.cliProc, w.client, err = thread(w.cntrA, 0); err != nil {
		return err
	}
	if _, w.server, err = thread(cntrB, 2); err != nil {
		return err
	}
	w.tr.begin(lNewEndpoint, nil)
	re := k.SysNewEndpoint(0, w.client, 0)
	w.tr.endSys(re)
	if re.Errno != kernel.OK {
		return fmt.Errorf("endpoint: %v", re.Errno)
	}
	ep := pm.Ptr(re.Vals[0])
	k.PM.Thrd(w.server).Endpoints[0] = ep
	k.PM.EndpointIncRef(ep, 1)
	w.tr.begin(lRecv, nil)
	r := k.SysRecv(2, w.server, 0, kernel.RecvArgs{PageVA: landVA(0), EdptSlot: -1})
	w.tr.endSys(r)
	if r.Errno != kernel.EWOULDBLOCK {
		return fmt.Errorf("server park: %v", r.Errno)
	}
	if err := verify.TotalWF(k); err != nil {
		return fmt.Errorf("set-up state ill-formed: %w", err)
	}
	w.aligned = alignCores(k)
	w.lat = make([]uint64, 0, ckRounds)
	return nil
}

func cliVA(slot int) hw.VirtAddr { return hw.VirtAddr(ckCliBase + slot*ckSlotSpan) }
func landVA(slot int) hw.VirtAddr {
	return hw.VirtAddr(ckLandBase + slot*hw.PageSize4K)
}

// pick returns a uniformly chosen index i < n with ok(i), or -1.
func (w *checked) pick(n int, ok func(int) bool) int {
	start := int(w.gen.next() % uint64(n))
	for d := 0; d < n; d++ {
		if i := (start + d) % n; ok(i) {
			return i
		}
	}
	return -1
}

// step checks one transition: Ψ, the syscall, Ψ', the predicate, and
// every WF check. Violations are counted, never skipped.
func (w *checked) step(sys layer, core int, do func() kernel.Ret,
	pred func(old, new spec.State, ret kernel.Ret) error) kernel.Ret {
	k, tr := w.k, w.tr
	clk := &k.Machine.Core(core).Clock
	tr.begin(lAbstract, nil)
	old := spec.Abstract(k.PM, k.Alloc, k.IOMMU)
	tr.end(false)
	before := clk.Cycles()
	tr.begin(sys, clk)
	ret := do()
	tr.endSys(ret)
	cycles := clk.Cycles() - before
	tr.begin(lAbstract, nil)
	new := spec.Abstract(k.PM, k.Alloc, k.IOMMU)
	tr.end(false)

	bad := false
	tr.begin(lPredicate, nil)
	err := pred(old, new, ret)
	tr.end(err != nil)
	if err != nil {
		bad = true
		fmt.Printf("spec violation at step %d (%s): %v\n", w.steps, layerNames[sys], err)
	}
	tr.begin(lTotalWF, nil)
	wfBad := false
	for i, c := range verify.WFChecks() {
		tr.begin(lWF0+layer(i), nil)
		err := c.Check(k)
		tr.end(err != nil)
		if err != nil {
			wfBad = true
			fmt.Printf("wf violation at step %d (%s): %s: %v\n", w.steps, layerNames[sys], c.Name, err)
		}
	}
	tr.end(wfBad)
	if tr != nil && w.steps%ckSnapshot == 0 {
		tr.begin(lSnapshot, nil)
		k.Alloc.Snapshot()
		tr.end(false)
	}
	w.steps++
	w.lat = append(w.lat, cycles)
	if bad || wfBad {
		w.failed++
	} else if cycles <= sloCycles {
		w.within++
	}
	return ret
}

func (w *checked) round(int) error {
	if len(w.next) > 0 {
		next := w.next[0]
		w.next = w.next[1:]
		return next()
	}
	if len(w.deck) == 0 {
		w.deck = append(w.deck, ckDeck...)
		for i := len(w.deck) - 1; i > 0; i-- {
			j := int(w.gen.next() % uint64(i+1))
			w.deck[i], w.deck[j] = w.deck[j], w.deck[i]
		}
	}
	op := w.deck[len(w.deck)-1]
	w.deck = w.deck[:len(w.deck)-1]
	op(w)
	return nil
}

// ckDeck is the op mix, dealt in seeded order: every 20 draws hold
// exactly these ops, so a seed changes the order and the targets but
// not the proportions, and the simulated totals barely move between
// seeds.
var ckDeck = func() []func(*checked) {
	var d []func(*checked)
	for _, e := range []struct {
		op func(*checked)
		n  int
	}{
		{(*checked).mmap, 5}, {(*checked).munmap, 3}, {(*checked).call, 6},
		{(*checked).newProc, 2}, {(*checked).newEndpoint, 2}, {(*checked).kill, 2},
	} {
		for i := 0; i < e.n; i++ {
			d = append(d, e.op)
		}
	}
	return d
}()

func (w *checked) mmap() {
	s := w.pick(ckSlots, func(i int) bool { return w.mapped[i] == 0 })
	if s < 0 {
		w.munmap()
		return
	}
	w.mmaps++
	n := 1 + w.mmaps%4
	va := cliVA(s)
	ret := w.step(lMmap, 0, func() kernel.Ret { return w.k.SysMmap(0, w.client, va, n, hw.Size4K, pt.RW) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.MmapSpec(old, new, w.client, va, n, hw.Size4K, pt.RW, ret)
		})
	if ret.Errno == kernel.OK {
		w.mapped[s] = n
	}
}

func (w *checked) munmap() {
	s := w.pick(ckSlots, func(i int) bool { return w.mapped[i] > 0 })
	if s < 0 {
		w.mmap()
		return
	}
	n, va := w.mapped[s], cliVA(s)
	ret := w.step(lMunmap, 0, func() kernel.Ret { return w.k.SysMunmap(0, w.client, va, n, hw.Size4K) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.MunmapSpec(old, new, w.client, va, n, hw.Size4K, ret)
		})
	if ret.Errno == kernel.OK {
		w.mapped[s] = 0
	}
}

// call is a client call to the parked server, granting a one-page
// mapping every fourth time. The woken server then unmaps a granted
// page every other time and always reply_recvs, in the next rounds: a
// parked server cannot make syscalls.
func (w *checked) call() {
	w.calls++
	grant := -1
	if w.calls%4 == 0 && !w.landed[w.landing] {
		grant = w.pick(ckSlots, func(i int) bool { return w.mapped[i] == 1 })
	}
	args := kernel.SendArgs{Regs: [4]uint64{w.gen.next()}}
	if grant >= 0 {
		args.GrantPage, args.PageVA = true, cliVA(grant)
	}
	ret := w.step(lCall, 0, func() kernel.Ret { return w.k.SysCall(0, w.client, 0, args) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.CallReplySpec(old, new, w.client, 0, args.GrantPage, ret)
		})
	if ret.Errno != kernel.EWOULDBLOCK {
		return
	}
	if grant >= 0 && w.k.PM.Thrd(w.server).IPC.Msg.HasPage {
		w.mapped[grant] = 0
		w.landed[w.landing] = true
		w.grants++
	}
	if w.calls%2 == 1 && w.pick(ckLands, func(i int) bool { return w.landed[i] }) >= 0 {
		w.next = append(w.next, w.serverUnmap)
	}
	w.next = append(w.next, func() error {
		w.landing = max(0, w.pick(ckLands, func(i int) bool { return !w.landed[i] }))
		recv := kernel.RecvArgs{PageVA: landVA(w.landing), EdptSlot: -1}
		reply := kernel.SendArgs{Regs: [4]uint64{w.gen.next()}}
		ret := w.step(lReplyRecv, 2, func() kernel.Ret { return w.k.SysReplyRecv(2, w.server, 0, reply, recv) },
			func(old, new spec.State, ret kernel.Ret) error {
				return spec.ReplyRecvSpec(old, new, w.server, 0, ret)
			})
		if ret.Errno != kernel.EWOULDBLOCK {
			return fmt.Errorf("server reply_recv: %v", ret.Errno)
		}
		return nil
	})
}

// serverUnmap returns one granted page from the server's space.
func (w *checked) serverUnmap() error {
	s := w.pick(ckLands, func(i int) bool { return w.landed[i] })
	va := landVA(s)
	ret := w.step(lMunmap, 2, func() kernel.Ret { return w.k.SysMunmap(2, w.server, va, 1, hw.Size4K) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.MunmapSpec(old, new, w.server, va, 1, hw.Size4K, ret)
		})
	if ret.Errno == kernel.OK {
		w.landed[s] = false
	}
	return nil
}

// newProc creates a child process of the client; its first thread
// follows as the next round.
func (w *checked) newProc() {
	if len(w.children) >= ckChildren {
		w.kill()
		return
	}
	ret := w.step(lNewProc, 0, func() kernel.Ret { return w.k.SysNewProcess(0, w.client) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.NewProcSpec(old, new, w.client, w.cntrA, w.cliProc, ret)
		})
	if ret.Errno != kernel.OK {
		return
	}
	proc := pm.Ptr(ret.Vals[0])
	w.next = append(w.next, func() error {
		ret := w.step(lNewThread, 0, func() kernel.Ret { return w.k.SysNewThreadIn(0, w.client, proc, 1) },
			func(old, new spec.State, ret kernel.Ret) error {
				return spec.NewThreadSpec(old, new, w.client, proc, 1, ret)
			})
		c := ckChild{proc: proc}
		if ret.Errno == kernel.OK {
			c.tid = pm.Ptr(ret.Vals[0])
		}
		w.children = append(w.children, c)
		return nil
	})
}

// newEndpoint has a child thread create an endpoint in its next slot.
func (w *checked) newEndpoint() {
	i := -1
	if len(w.children) > 0 {
		i = w.pick(len(w.children), func(i int) bool {
			return w.children[i].tid != 0 && w.children[i].slots < pm.MaxEndpoints
		})
	}
	if i < 0 {
		w.newProc()
		return
	}
	c := &w.children[i]
	slot := c.slots
	ret := w.step(lNewEndpoint, 1, func() kernel.Ret { return w.k.SysNewEndpoint(1, c.tid, slot) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.NewEndpointSpec(old, new, c.tid, slot, ret)
		})
	if ret.Errno == kernel.OK {
		c.slots++
	}
}

// kill has the client kill one child process with everything it owns.
func (w *checked) kill() {
	if len(w.children) == 0 {
		w.newProc()
		return
	}
	i := int(w.gen.next() % uint64(len(w.children)))
	proc := w.children[i].proc
	ret := w.step(lKillProc, 0, func() kernel.Ret { return w.k.SysKillProcess(0, w.client, proc) },
		func(old, new spec.State, ret kernel.Ret) error {
			return spec.KillProcessSpec(old, new, w.client, proc, ret)
		})
	if ret.Errno == kernel.OK {
		w.children = append(w.children[:i], w.children[i+1:]...)
	}
}

func (w *checked) finish(p *pass) error {
	p.ops, p.attempted, p.failed, p.withinSLO = w.steps, w.steps, w.failed, w.within
	var err error
	if p.latP50, err = exactQuantile(w.lat, 0.50); err != nil {
		return err
	}
	if p.latP99, err = exactQuantile(w.lat, 0.99); err != nil {
		return err
	}
	p.simOps, p.simCycles = w.steps, w.k.Machine.MaxCycles()-w.aligned
	p.clocks = coreClocks(w.k)
	p.sim["kernel.grant.pages"] = float64(w.grants)
	return nil
}
