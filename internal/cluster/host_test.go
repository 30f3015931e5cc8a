package cluster

import (
	"testing"

	"atmosphere/internal/faults"
	"atmosphere/internal/hw"
)

// mixBytewise is the reference trace-hash fold: FNV-1a over the 24
// little-endian bytes of (code, a, b), one byte at a time.
func mixBytewise(h, code, a, b uint64) uint64 {
	for _, w := range [3]uint64{code, a, b} {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= fnvPrime
		}
	}
	return h
}

// mixMismatch folds triples through Cluster.mix and through the
// reference, chaining each hash into the next, and returns the index
// of the first triple whose hashes differ, or -1.
func mixMismatch(triples [][3]uint64) int {
	c := &Cluster{hash: fnvOffset}
	ref := uint64(fnvOffset)
	for i, tr := range triples {
		c.mix(tr[0], tr[1], tr[2])
		ref = mixBytewise(ref, tr[0], tr[1], tr[2])
		if c.hash != ref {
			return i
		}
	}
	return -1
}

func mixInputs() [][3]uint64 {
	edges := []uint64{0, 0xff, 1 << 56, ^uint64(0)}
	var triples [][3]uint64
	for _, x := range edges {
		for _, y := range edges {
			for _, z := range edges {
				triples = append(triples, [3]uint64{x, y, z})
			}
		}
	}
	// Random words cut to a random byte length, so every count of high
	// zero bytes (0..8) is folded many times.
	r := hw.NewRand(20261017)
	word := func() uint64 { return r.Uint64() >> (8 * r.Intn(9)) }
	for i := 0; i < 10_000; i++ {
		triples = append(triples, [3]uint64{word(), word(), word()})
	}
	return triples
}

// TestMixMatchesBytewise: the zero-byte fast path folds exactly what
// the byte-at-a-time FNV-1a loop does.
func TestMixMatchesBytewise(t *testing.T) {
	if i := mixMismatch(mixInputs()); i >= 0 {
		t.Fatalf("fast mix diverges from the bytewise reference at triple %d", i)
	}
}

// TestMixDifferentialCatchesWrongPower: a wrong entry in the power
// table, for any count of high zero bytes, fails the differential.
func TestMixDifferentialCatchesWrongPower(t *testing.T) {
	inputs := mixInputs()
	for k := range fnvPrimePow {
		saved := fnvPrimePow[k]
		fnvPrimePow[k] = saved * fnvPrime
		i := mixMismatch(inputs)
		fnvPrimePow[k] = saved
		if i < 0 {
			t.Errorf("planted wrong fnvPrime^%d passed the differential", k)
		}
	}
}

// TestStepAllocFree: a warm, fault-free cluster tick allocates nothing
// on the host: frames ride recycled buffers, link delivery reuses its
// scratch, and the client visits busy flows through a bitset.
func TestStepAllocFree(t *testing.T) {
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		c.Step()
	}
	if n := testing.AllocsPerRun(200, c.Step); n != 0 {
		t.Fatalf("cluster.Step allocates %.2f times per tick, want 0", n)
	}
}

// chaosAllKindsPlan arms every cluster fault kind: backend kills (one
// while the backend is stalled with a queued inbox), stalls, a client
// link partition with frames in flight, and recurring delays and
// corruption on two backend links.
func chaosAllKindsPlan() faults.Plan {
	once := func(kind faults.Kind, tick, target, param uint64) faults.Rule {
		return faults.Rule{Kind: kind, Period: tick * TickCycles, Until: (tick + 1) * TickCycles,
			Target: target, Param: param}
	}
	return faults.Plan{Rules: []faults.Rule{
		once(faults.MachineKill, 400, firstBackend+1, 0),
		once(faults.MachineStall, 300, firstBackend, 6*TickCycles),
		once(faults.MachineStall, 600, firstBackend+2, 10*TickCycles),
		once(faults.MachineKill, 605, firstBackend+2, 0),
		once(faults.LinkPartition, 900, clientLink, 20*TickCycles),
		{Kind: faults.LinkDelay, Period: 70 * TickCycles, Target: firstBackLink, Param: 3 * TickCycles},
		{Kind: faults.LinkCorrupt, Period: 90 * TickCycles, Target: firstBackLink + 3},
		{Kind: faults.LinkCorrupt, Period: 130 * TickCycles, Target: clientLink},
	}}
}

// TestReleasedBuffersAreDead: with every released frame buffer filled
// with 0xA5, a chaos run exercising every fault kind produces the same
// Report, field for field, as the unfilled run, traced and untraced.
// So no frame is read after the place its buffer is released.
func TestReleasedBuffersAreDead(t *testing.T) {
	for _, traced := range []bool{false, true} {
		run := func(poison bool) (Report, *Cluster) {
			cfg := DefaultConfig()
			cfg.Ticks = 1500
			cfg.DistTracing = traced
			cfg.Plan = chaosAllKindsPlan()
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c.bufs.poison = poison
			return c.Run(), c
		}
		plain, c := run(false)
		filled, _ := run(true)
		if plain != filled {
			t.Fatalf("traced=%v: poisoning released buffers changed the run:\n%+v\n%+v",
				traced, plain, filled)
		}
		var stalls uint64
		for _, m := range c.machines {
			stalls += m.Stalls
		}
		if plain.Kills != 2 || plain.Respawns != 2 || stalls != 2 || plain.DroppedLink == 0 ||
			plain.Corrupted == 0 || plain.DroppedDead == 0 || c.inj.Injected[faults.LinkDelay] == 0 {
			t.Fatalf("traced=%v: a fault kind did not bite: kills=%d respawns=%d stalls=%d "+
				"droppedLink=%d corrupted=%d droppedDead=%d delays=%d", traced, plain.Kills,
				plain.Respawns, stalls, plain.DroppedLink, plain.Corrupted, plain.DroppedDead,
				c.inj.Injected[faults.LinkDelay])
		}
	}
}

// BenchmarkStep is the host cost of one warm, fault-free cluster tick
// (the bench topology: Maglev LB, 4 kvstore backends, 8 arrivals per
// tick).
func BenchmarkStep(b *testing.B) {
	c, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		c.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}
