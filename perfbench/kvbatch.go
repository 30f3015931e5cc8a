package main

import (
	"errors"
	"fmt"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
	"atmosphere/internal/shmring"
)

// The kv-batch workload: the kv clients and stores, but each core's
// client packs its requests into 4 KiB pages (128 one-word requests per
// page, 4 pages per doorbell) and grants the pages to its server through a submission ring
// drained by one SysBatch doorbell; the server receives them with a
// second doorbell, serves every request in place, grants the pages
// back with a third, and the client drains them home with a fourth.
// Each core's pair lives in its own container, so lock frontiers are
// uncontended. A round is one such page generation on every core.
const (
	kbPages     = 4           // request pages per doorbell
	kbReqs      = 128         // packed requests per page (1 KiB of each 4 KiB page)
	kbRounds    = 1000        // generations per pass
	kbVABase    = 0x4000_0000 // per-core layout base
	kbVAStep    = 0x100_0000  // per-core layout stride
	kbGrantOff  = 0x10000     // client grant window
	kbLandOff   = 0x20000     // server landing window
	kbRingPages = 2           // submission + completion ring
)

type kbCore struct {
	*kvShard
	clk                        *hw.Clock
	cliSQ, cliCQ, srvSQ, srvCQ *shmring.Ring
	base                       hw.VirtAddr
	want                       [kbPages * kbReqs]uint64
}

func (c *kbCore) sqVA() hw.VirtAddr { return c.base }
func (c *kbCore) cqVA() hw.VirtAddr { return c.base + hw.PageSize4K }
func (c *kbCore) grantVA(p int) hw.VirtAddr {
	return c.base + kbGrantOff + hw.VirtAddr(p)*hw.PageSize4K
}
func (c *kbCore) landVA(p int) hw.VirtAddr { return c.base + kbLandOff + hw.VirtAddr(p)*hw.PageSize4K }

type kvBatch struct {
	seed      uint64
	tr        *tracer
	k         *kernel.Kernel
	cores     []*kbCore
	aligned   uint64
	lat       []uint64 // per core-generation simulated latency
	served    uint64
	failed    uint64
	within    uint64
	doorbells uint64
	drained   uint64
	grants    uint64
	full      uint64
}

func newKVBatch(seed uint64, tr *tracer) workload { return &kvBatch{seed: seed, tr: tr} }

func (w *kvBatch) rounds() int { return kbRounds }

func (w *kvBatch) setup() error {
	k, init, err := bootKV(w.tr)
	if err != nil {
		return err
	}
	w.k = k
	for c := 0; c < kvCores; c++ {
		s, err := newKVShard(w.seed, c)
		if err != nil {
			return err
		}
		cntr, err := newContainer(k, w.tr, init, 192, []int{c})
		if err != nil {
			return err
		}
		if s.client, s.server, err = kvPair(k, w.tr, init, cntr, c, 2); err != nil {
			return fmt.Errorf("core %d: %w", c, err)
		}
		kc := &kbCore{kvShard: s, clk: &k.Machine.Core(c).Clock, base: hw.VirtAddr(kbVABase + c*kbVAStep)}
		if err := w.mmap(c, s.client, kc.sqVA(), kbRingPages); err != nil {
			return err
		}
		if err := w.mmap(c, s.client, kc.grantVA(0), kbPages); err != nil {
			return err
		}
		if err := w.mmap(c, s.server, kc.sqVA(), kbRingPages); err != nil {
			return err
		}
		if kc.cliSQ, kc.cliCQ, err = w.rings(kc, s.client); err != nil {
			return err
		}
		if kc.srvSQ, kc.srvCQ, err = w.rings(kc, s.server); err != nil {
			return err
		}
		w.cores = append(w.cores, kc)
	}
	w.aligned = alignCores(k)
	k.EnableContention()
	w.lat = make([]uint64, 0, kbRounds*kvCores)
	return nil
}

func (w *kvBatch) mmap(c int, tid pm.Ptr, va hw.VirtAddr, n int) error {
	w.tr.begin(lMmap, &w.k.Machine.Core(c).Clock)
	r := w.k.SysMmap(c, tid, va, n, hw.Size4K, pt.RW)
	w.tr.endSys(r)
	if r.Errno != kernel.OK {
		return fmt.Errorf("mmap %#x x%d: %v", va, n, r.Errno)
	}
	return nil
}

// rings builds the user-side views of a thread's ring pages; their
// traffic charges the core clock like the rest of the user code.
func (w *kvBatch) rings(kc *kbCore, tid pm.Ptr) (*shmring.Ring, *shmring.Ring, error) {
	k := w.k
	table := k.PM.Proc(k.PM.Thrd(tid).OwningProc).PageTable
	se, ok := table.Lookup(kc.sqVA())
	ce, ok2 := table.Lookup(kc.cqVA())
	if !ok || !ok2 {
		return nil, nil, fmt.Errorf("ring pages unmapped")
	}
	return shmring.New(k.Machine.Mem, kc.clk, se.Phys, shmring.SlotsPerPage()),
		shmring.New(k.Machine.Mem, kc.clk, ce.Phys, shmring.SlotsPerPage()), nil
}

// submit encodes one submission; a full ring is counted and fails the
// round (the generation never exceeds the ring by construction).
func (w *kvBatch) submit(r *shmring.Ring, op uint8, token uint16, args ...uint64) error {
	w.tr.begin(lEncodeSQE, nil)
	err := shmring.EncodeSQE(r, op, 0, token, args...)
	w.tr.end(err != nil)
	if errors.Is(err, shmring.ErrFull) {
		w.full++
	}
	return err
}

// doorbell drains tid's ring and its completions, expecting want ops
// to complete OK.
func (w *kvBatch) doorbell(kc *kbCore, tid pm.Ptr, cq *shmring.Ring, want int) error {
	c := kc.core
	w.tr.begin(lBatch, kc.clk)
	r := w.k.SysBatch(c, tid, kc.sqVA(), kc.cqVA(), 0)
	w.tr.endSys(r)
	w.doorbells++
	w.drained += r.Vals[0]
	if r.Errno != kernel.OK || r.Vals[0] != uint64(want) {
		return fmt.Errorf("doorbell: %v drained %d of %d", r.Errno, r.Vals[0], want)
	}
	for i := 0; i < want; i++ {
		w.tr.begin(lPopCQE, nil)
		cqe, err := shmring.PopCQE(cq)
		w.tr.end(err != nil)
		if err != nil {
			return fmt.Errorf("cqe %d: %w", i, err)
		}
		if kernel.Errno(cqe.Errno) != kernel.OK {
			return fmt.Errorf("cqe %d: %v", i, kernel.Errno(cqe.Errno))
		}
	}
	return nil
}

func (w *kvBatch) round(int) error {
	for _, kc := range w.cores {
		if err := w.generation(kc); err != nil {
			return fmt.Errorf("core %d: %w", kc.core, err)
		}
	}
	return nil
}

// generation moves one set of request pages client → server → client.
func (w *kvBatch) generation(kc *kbCore) error {
	k, clk, mem := w.k, kc.clk, w.k.Machine.Mem
	cliTable := k.PM.Proc(k.PM.Thrd(kc.client).OwningProc).PageTable
	srvTable := k.PM.Proc(k.PM.Thrd(kc.server).OwningProc).PageTable
	start := clk.Cycles()

	// Client: fill the request pages and grant them.
	for p := 0; p < kbPages; p++ {
		e, ok := cliTable.Lookup(kc.grantVA(p))
		if !ok {
			return fmt.Errorf("grant page %d unmapped", p)
		}
		for j := 0; j < kbReqs; j++ {
			req, want := kc.nextReq()
			kc.want[p*kbReqs+j] = want
			mem.WriteU64(e.Phys+hw.PhysAddr(8*j), req)
		}
		clk.ChargeBytes(hw.PageSize4K)
		if err := w.submit(kc.cliSQ, kernel.BopSendAsync, uint16(p), 0, uint64(p), 0, uint64(kc.grantVA(p))); err != nil {
			return err
		}
	}
	if err := w.doorbell(kc, kc.client, kc.cliCQ, kbPages); err != nil {
		return fmt.Errorf("client send: %w", err)
	}

	// Server: receive, serve in place, grant back.
	for p := 0; p < kbPages; p++ {
		if err := w.submit(kc.srvSQ, kernel.BopRecv, uint16(p), 0, uint64(kc.landVA(p)), 0); err != nil {
			return err
		}
	}
	if err := w.doorbell(kc, kc.server, kc.srvCQ, kbPages); err != nil {
		return fmt.Errorf("server recv: %w", err)
	}
	for p := 0; p < kbPages; p++ {
		e, ok := srvTable.Lookup(kc.landVA(p))
		if !ok {
			return fmt.Errorf("landing page %d unmapped", p)
		}
		clk.ChargeBytes(2 * hw.PageSize4K)
		for j := 0; j < kbReqs; j++ {
			addr := e.Phys + hw.PhysAddr(8*j)
			w.tr.begin(lServe, clk)
			rep := kc.store.ServeReg(clk, mem.ReadU64(addr))
			w.tr.end(false)
			mem.WriteU64(addr, rep)
		}
		if err := w.submit(kc.srvSQ, kernel.BopSendAsync, uint16(p), 1, uint64(p), 0, uint64(kc.landVA(p))); err != nil {
			return err
		}
	}
	if err := w.doorbell(kc, kc.server, kc.srvCQ, kbPages); err != nil {
		return fmt.Errorf("server reply: %w", err)
	}

	// Client: drain the reply pages home and check every reply.
	for p := 0; p < kbPages; p++ {
		if err := w.submit(kc.cliSQ, kernel.BopRecv, uint16(p), 1, uint64(kc.grantVA(p)), 0); err != nil {
			return err
		}
	}
	if err := w.doorbell(kc, kc.client, kc.cliCQ, kbPages); err != nil {
		return fmt.Errorf("client recv: %w", err)
	}
	w.grants += 2 * kbPages
	clk.ChargeBytes(kbPages * hw.PageSize4K)
	lat := clk.Cycles() - start
	w.lat = append(w.lat, lat)
	for p := 0; p < kbPages; p++ {
		e, ok := cliTable.Lookup(kc.grantVA(p))
		if !ok {
			return fmt.Errorf("reply page %d unmapped", p)
		}
		for j := 0; j < kbReqs; j++ {
			w.served++
			if mem.ReadU64(e.Phys+hw.PhysAddr(8*j)) != kc.want[p*kbReqs+j] {
				w.failed++
			} else if lat <= sloCycles {
				w.within++
			}
		}
	}
	return nil
}

func (w *kvBatch) finish(p *pass) error {
	p.ops, p.attempted, p.failed, p.withinSLO = w.served, w.served, w.failed, w.within
	var err error
	if p.latP50, err = exactQuantile(w.lat, 0.50); err != nil {
		return err
	}
	if p.latP99, err = exactQuantile(w.lat, 0.99); err != nil {
		return err
	}
	p.simOps, p.simCycles = w.served, w.k.Machine.MaxCycles()-w.aligned
	p.clocks = coreClocks(w.k)
	lockStats(w.k, p.sim)
	shards := make([]*kvShard, len(w.cores))
	for i, kc := range w.cores {
		shards[i] = kc.kvShard
	}
	p.sim["apps.kvstore.miss_ratio"] = kvMissRatio(shards)
	p.sim["kernel.batch.ops_per_doorbell"] = float64(w.drained) / float64(w.doorbells)
	p.sim["kernel.grant.pages"] = float64(w.grants)
	p.sim["shmring.full_count"] = float64(w.full)
	return nil
}
