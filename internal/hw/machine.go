package hw

import "fmt"

// Machine bundles the simulated hardware of one node: physical memory, an
// MMU, per-core clocks and TLBs. Configurations mirror the CloudLab nodes
// used in the paper's evaluation (§6).
type Machine struct {
	Mem   *PhysMem
	MMU   *MMU
	cores []*Core
}

// Core is one simulated CPU core with its own clock and TLB.
type Core struct {
	ID    int
	Clock Clock
	TLB   *TLB
}

// Config describes a simulated machine.
type Config struct {
	// Frames is the number of 4 KiB physical frames.
	Frames int
	// Cores is the number of CPU cores.
	Cores int
	// TLBSlots is the per-core TLB capacity.
	TLBSlots int
}

// DefaultConfig is a laptop-scale machine: 64 MiB of simulated RAM and
// 4 cores, large enough for every experiment in the repository.
func DefaultConfig() Config {
	return Config{Frames: 16384, Cores: 4, TLBSlots: 1536}
}

// C220G5Config mirrors the CloudLab c220g5 node shape used for the
// microbenchmarks (scaled memory; core count preserved per-socket).
func C220G5Config() Config {
	return Config{Frames: 32768, Cores: 10, TLBSlots: 1536}
}

// NewMachine builds a machine from cfg.
func NewMachine(cfg Config) *Machine {
	if cfg.Frames <= 0 || cfg.Cores <= 0 {
		panic(fmt.Sprintf("hw: invalid machine config %+v", cfg))
	}
	m := &Machine{Mem: NewPhysMem(cfg.Frames)}
	m.MMU = NewMMU(m.Mem)
	for i := 0; i < cfg.Cores; i++ {
		m.cores = append(m.cores, &Core{ID: i, TLB: NewTLB(cfg.TLBSlots)})
	}
	return m
}

// PowerCycle returns m to the state NewMachine gives a machine of its
// shape: memory zeroed in place (the backing array is reused, not
// reallocated) and fresh cores whose clocks read zero and whose TLBs,
// of the same size, are empty.
func (m *Machine) PowerCycle() {
	clear(m.Mem.data)
	for i, c := range m.cores {
		m.cores[i] = &Core{ID: i, TLB: NewTLB(len(c.TLB.entries))}
	}
}

// NumCores returns the number of cores.
func (m *Machine) NumCores() int { return len(m.cores) }

// Core returns core i.
func (m *Machine) Core(i int) *Core {
	if i < 0 || i >= len(m.cores) {
		panic(fmt.Sprintf("hw: core %d out of range %d", i, len(m.cores)))
	}
	return m.cores[i]
}

// TotalCycles sums cycles across all cores (useful for aggregate budgets).
func (m *Machine) TotalCycles() uint64 {
	var sum uint64
	for _, c := range m.cores {
		sum += c.Clock.Cycles()
	}
	return sum
}

// MaxCycles returns the largest per-core cycle count — simulated wall-clock
// time when cores run concurrently.
func (m *Machine) MaxCycles() uint64 {
	var mx uint64
	for _, c := range m.cores {
		if c.Clock.Cycles() > mx {
			mx = c.Clock.Cycles()
		}
	}
	return mx
}
