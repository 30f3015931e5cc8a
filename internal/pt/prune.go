package pt

import (
	"atmosphere/internal/hw"
)

// PruneEmpty frees every table node (never the root) whose entries are
// all non-present, clearing the parent slots that pointed at them. The
// kernel uses it on mmap failure paths so that quota accounting never has
// to carry nodes that no mapping reaches. Returns the number of node
// pages freed.
func (t *PageTable) PruneEmpty() int {
	freed := 0
	m := t.alloc.Mem()

	empty := func(table hw.PhysAddr) bool {
		for i := 0; i < hw.EntriesPerTable; i++ {
			if m.ReadU64(slotAddr(table, i))&hw.PtePresent != 0 {
				return false
			}
		}
		return true
	}

	// prune processes one table at the given level (4 = PML4) and
	// reports whether it is empty after pruning its children.
	var prune func(table hw.PhysAddr, level int) bool
	prune = func(table hw.PhysAddr, level int) bool {
		for i := 0; i < hw.EntriesPerTable; i++ {
			slot := slotAddr(table, i)
			e := m.ReadU64(slot)
			if e&hw.PtePresent == 0 {
				continue
			}
			if level == 1 || e&hw.PteHuge != 0 {
				continue // terminal mapping
			}
			child := hw.PhysAddr(e & hw.PteAddrMask)
			if prune(child, level-1) && empty(child) {
				t.write(slot, 0, false)
				t.dropNode(child)
				if err := t.alloc.FreePage(child); err != nil {
					panic(err)
				}
				freed++
			}
		}
		return empty(table)
	}
	prune(t.cr3, 4)
	return freed
}
