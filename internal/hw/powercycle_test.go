package hw

import "testing"

// TestPowerCycleZeroesEveryFrame: a power-cycled machine reads zero on
// every frame, its clocks read zero and its TLBs are empty, with the
// same memory, core count and TLB size as before.
func TestPowerCycleZeroesEveryFrame(t *testing.T) {
	m := NewMachine(Config{Frames: 16, Cores: 2, TLBSlots: 8})
	mem := m.Mem
	junk := make([]byte, PageSize4K)
	for i := range junk {
		junk[i] = 0xA5
	}
	for f := 0; f < mem.Frames(); f++ {
		mem.Write(mem.FrameAddr(f), junk)
	}
	tr := Translation{Phys: 0x3000, Size: Size4K, Writable: true}
	for i := 0; i < m.NumCores(); i++ {
		m.Core(i).Clock.Charge(1000)
		m.Core(i).TLB.Insert(0x1000, 0x400000, tr)
	}

	m.PowerCycle()

	if m.Mem != mem || m.NumCores() != 2 {
		t.Fatalf("power cycle changed the machine's shape: same mem=%v cores=%d", m.Mem == mem, m.NumCores())
	}
	for f := 0; f < mem.Frames(); f++ {
		for _, b := range mem.Read(mem.FrameAddr(f), PageSize4K) {
			if b != 0 {
				t.Fatalf("frame %d reads %#x after power cycle", f, b)
			}
		}
	}
	for i := 0; i < m.NumCores(); i++ {
		c := m.Core(i)
		if c.ID != i || c.Clock.Cycles() != 0 || len(c.TLB.entries) != 8 {
			t.Fatalf("core %d after power cycle: id=%d cycles=%d tlb=%d", i, c.ID, c.Clock.Cycles(), len(c.TLB.entries))
		}
		if _, ok := c.TLB.Lookup(0x1000, 0x400000); ok {
			t.Fatalf("core %d TLB kept a translation across the power cycle", i)
		}
		if h, mi, fl := c.TLB.Stats(); h+mi+fl != 1 { // the Lookup above: one miss
			t.Fatalf("core %d TLB stats survived: hits=%d misses=%d flushes=%d", i, h, mi, fl)
		}
	}
}
