package main

import (
	"fmt"

	"atmosphere/internal/apps"
	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
)

// The kv workloads: 4 simulated cores, each with a client/server pair
// and its own key-value store, serving a seeded 90/10 GET/SET stream
// of packed one-word requests (apps.PackKVReq). GETs range over a
// keyspace twice the store's capacity; SETs over its first quarter,
// half of which the set-up preloads, so the table fills as the pass
// runs but never passes half full, and most GETs miss. Every reply is checked against a shadow copy of the
// store's contents that the benchmark keeps itself. The stores stay
// small (under 600 KiB together) so host timings measure the
// simulator, not the host's contended last-level cache.
const (
	kvCores    = 4
	kvFrames   = 8192
	kvStoreCap = 1 << 13 // entries per core's store
	kvKeyspace = 2 * kvStoreCap
	kvWritable = kvStoreCap / 2 // SETs go to keys [0, kvWritable)
	kvSetPct   = 10
	// kvRegMagic is the packed protocol's SET value derivation: a SET
	// of key k stores k ^ kvRegMagic (apps.ServeReg's contract).
	kvRegMagic = 0x9e3779b97f4a7c15
)

// splitmix is the benchmark's input generator.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// kvShard is one core's serving state: the store the server serves
// from, the shadow the benchmark checks replies against, and the
// core's request generator.
type kvShard struct {
	core           int
	client, server pm.Ptr
	store          *apps.KVStore
	keySeed        uint64
	present        []bool // shadow: key i is in the store
	gen            splitmix
}

// key is key i's word (bit 0 clear, for the opcode).
func (s *kvShard) key(i int) uint64 {
	r := splitmix{s.keySeed ^ uint64(i)}
	return r.next() &^ 1
}

func newKVShard(seed uint64, core int) (*kvShard, error) {
	store, err := apps.NewKVStore(kvStoreCap, 8, 8)
	if err != nil {
		return nil, err
	}
	s := &kvShard{core: core, store: store, present: make([]bool, kvKeyspace),
		gen: splitmix{seed ^ uint64(core+1)<<56}}
	s.keySeed = s.gen.next()
	// Preload half the writable keys directly (no kernel path).
	for j := 0; j < kvWritable/2; j++ {
		if store.ServeReg(nil, apps.PackKVReq(true, s.key(j))) != 1 {
			return nil, fmt.Errorf("preload of key %d failed", j)
		}
		s.present[j] = true
	}
	return s, nil
}

// nextReq draws the next request and its expected reply, updating the
// shadow as the store must update.
func (s *kvShard) nextReq() (req, want uint64) {
	r := s.gen.next()
	j := int(r % kvKeyspace)
	key := s.key(j)
	if (r>>32)%100 < kvSetPct {
		j = int(r % kvWritable)
		key = s.key(j)
		s.present[j] = true
		return apps.PackKVReq(true, key), 1
	}
	if s.present[j] {
		return apps.PackKVReq(false, key), key ^ kvRegMagic
	}
	return apps.PackKVReq(false, key), 0
}

// kvMissRatio sums GET misses over GETs across the stores.
func kvMissRatio(shards []*kvShard) float64 {
	var gets, misses uint64
	for _, s := range shards {
		gets += s.store.Gets
		misses += s.store.Misses
	}
	if gets == 0 {
		return 0
	}
	return float64(misses) / float64(gets)
}

// boot boots a machine of the given shape inside a kernel.boot span.
func boot(tr *tracer, frames, cores int) (*kernel.Kernel, pm.Ptr, error) {
	tr.begin(lBoot, nil)
	k, init, err := kernel.Boot(hw.Config{Frames: frames, Cores: cores, TLBSlots: 256})
	tr.end(err != nil)
	return k, init, err
}

// bootKV boots the kv machine: per-core page caches, work stealing and
// the contended lock model (the multicore series' machine model).
func bootKV(tr *tracer) (*kernel.Kernel, pm.Ptr, error) {
	k, init, err := boot(tr, kvFrames, kvCores)
	if err != nil {
		return nil, 0, err
	}
	k.EnableCoreCaches(32)
	k.PM.EnableWorkStealing()
	return k, init, nil
}

// kvPair creates a client and a server process with one thread each
// on core c inside cntr, and shares the client's endpoints in slots
// 0..slots-1 with the server.
func kvPair(k *kernel.Kernel, tr *tracer, init, cntr pm.Ptr, c, slots int) (client, server pm.Ptr, err error) {
	tids := [2]pm.Ptr{}
	for i := range tids {
		tr.begin(lNewProc, nil)
		rp := k.SysNewProcessIn(0, init, cntr)
		tr.endSys(rp)
		if rp.Errno != kernel.OK {
			return 0, 0, fmt.Errorf("process: %v", rp.Errno)
		}
		tr.begin(lNewThread, nil)
		rt := k.SysNewThreadIn(0, init, pm.Ptr(rp.Vals[0]), c)
		tr.endSys(rt)
		if rt.Errno != kernel.OK {
			return 0, 0, fmt.Errorf("thread: %v", rt.Errno)
		}
		tids[i] = pm.Ptr(rt.Vals[0])
	}
	client, server = tids[0], tids[1]
	for slot := 0; slot < slots; slot++ {
		tr.begin(lNewEndpoint, nil)
		re := k.SysNewEndpoint(c, client, slot)
		tr.endSys(re)
		if re.Errno != kernel.OK {
			return 0, 0, fmt.Errorf("endpoint %d: %v", slot, re.Errno)
		}
		// Boot-style hand-over of the descriptor (no syscall shares
		// an endpoint between two fresh processes).
		ep := pm.Ptr(re.Vals[0])
		k.PM.Thrd(server).Endpoints[slot] = ep
		k.PM.EndpointIncRef(ep, 1)
	}
	return client, server, nil
}

// newContainer creates a container under init with the given cores.
func newContainer(k *kernel.Kernel, tr *tracer, init pm.Ptr, quota uint64, cpus []int) (pm.Ptr, error) {
	tr.begin(lNewContainer, nil)
	r := k.SysNewContainer(0, init, quota, cpus)
	tr.endSys(r)
	if r.Errno != kernel.OK {
		return 0, fmt.Errorf("container: %v", r.Errno)
	}
	return pm.Ptr(r.Vals[0]), nil
}

// alignCores brings every core clock to the latest one, so the measured
// phase starts with all cores at the same simulated instant.
func alignCores(k *kernel.Kernel) uint64 {
	mx := k.Machine.MaxCycles()
	for c := 0; c < k.Machine.NumCores(); c++ {
		clk := &k.Machine.Core(c).Clock
		clk.Charge(mx - clk.Cycles())
	}
	return mx
}

func coreClocks(k *kernel.Kernel) []uint64 {
	cs := make([]uint64, k.Machine.NumCores())
	for c := range cs {
		cs[c] = k.Machine.Core(c).Clock.Cycles()
	}
	return cs
}

// lockStats records the kernel's lock-model totals.
func lockStats(k *kernel.Kernel, sim map[string]float64) {
	acq, cont, wait := k.LockStats()
	sim["hw.lock.acquisitions"] = float64(acq)
	sim["hw.lock.wait_cycles"] = float64(wait)
	if acq > 0 {
		sim["hw.lock.contended_ratio"] = float64(cont) / float64(acq)
	}
}

// kvRPC is the kv-rpc workload: every request is one client SysCall
// rendezvous with its server's SysReplyRecv, the request and reply in
// registers. All four pairs share one container, so its lock frontier
// is contended. Rounds go round-robin over the cores.
type kvRPC struct {
	seed    uint64
	tr      *tracer
	k       *kernel.Kernel
	shards  []*kvShard
	aligned uint64
	lat     []uint64 // per-request simulated latency
	failed  uint64
	within  uint64 // correct replies within sloCycles
}

// kvRPCRounds is requests per pass (all cores).
const kvRPCRounds = 100_000

func newKVRPC(seed uint64, tr *tracer) workload { return &kvRPC{seed: seed, tr: tr} }

func (w *kvRPC) rounds() int { return kvRPCRounds }

func (w *kvRPC) setup() error {
	k, init, err := bootKV(w.tr)
	if err != nil {
		return err
	}
	w.k = k
	cntr, err := newContainer(k, w.tr, init, 512, []int{0, 1, 2, 3})
	if err != nil {
		return err
	}
	for c := 0; c < kvCores; c++ {
		s, err := newKVShard(w.seed, c)
		if err != nil {
			return err
		}
		if s.client, s.server, err = kvPair(k, w.tr, init, cntr, c, 1); err != nil {
			return fmt.Errorf("core %d: %w", c, err)
		}
		// The server parks in recv; every request then is one call and
		// one reply_recv.
		w.tr.begin(lRecv, &k.Machine.Core(c).Clock)
		r := k.SysRecv(c, s.server, 0, kernel.RecvArgs{EdptSlot: -1})
		w.tr.endSys(r)
		if r.Errno != kernel.EWOULDBLOCK {
			return fmt.Errorf("core %d park: %v", c, r.Errno)
		}
		w.shards = append(w.shards, s)
	}
	w.aligned = alignCores(k)
	k.EnableContention()
	w.lat = make([]uint64, 0, kvRPCRounds)
	return nil
}

func (w *kvRPC) round(i int) error {
	s := w.shards[i%kvCores]
	c := s.core
	k, tr := w.k, w.tr
	clk := &k.Machine.Core(c).Clock
	req, want := s.nextReq()
	start := clk.Cycles()

	tr.begin(lCall, clk)
	r := k.SysCall(c, s.client, 0, kernel.SendArgs{Regs: [4]uint64{req}})
	tr.endSys(r)
	if r.Errno != kernel.EWOULDBLOCK {
		return fmt.Errorf("call: %v", r.Errno)
	}
	tr.begin(lServe, clk)
	rep := s.store.ServeReg(clk, k.PM.Thrd(s.server).IPC.Msg.Regs[0])
	tr.end(false)
	tr.begin(lReplyRecv, clk)
	r = k.SysReplyRecv(c, s.server, 0, kernel.SendArgs{Regs: [4]uint64{rep}}, kernel.RecvArgs{EdptSlot: -1})
	tr.endSys(r)
	if r.Errno != kernel.EWOULDBLOCK {
		return fmt.Errorf("reply_recv: %v", r.Errno)
	}
	lat := clk.Cycles() - start
	if got := k.PM.Thrd(s.client).IPC.Msg.Regs[0]; got != want {
		w.failed++
	} else if lat <= sloCycles {
		w.within++
	}
	w.lat = append(w.lat, lat)
	return nil
}

func (w *kvRPC) finish(p *pass) error {
	n := uint64(len(w.lat))
	p.ops, p.attempted, p.failed, p.withinSLO = n, n, w.failed, w.within
	var err error
	if p.latP50, err = exactQuantile(w.lat, 0.50); err != nil {
		return err
	}
	if p.latP99, err = exactQuantile(w.lat, 0.99); err != nil {
		return err
	}
	p.simOps, p.simCycles = n, w.k.Machine.MaxCycles()-w.aligned
	p.clocks = coreClocks(w.k)
	lockStats(w.k, p.sim)
	p.sim["apps.kvstore.miss_ratio"] = kvMissRatio(w.shards)
	return nil
}
