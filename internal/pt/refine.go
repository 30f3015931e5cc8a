package pt

import (
	"encoding/binary"
	"fmt"
	"sync"

	"atmosphere/internal/hw"
	"atmosphere/internal/mem"
)

// This file holds the executable form of the page-table refinement
// theorem (§6.2): the abstract mapping equals, in both directions, what
// the hardware MMU resolves from the concrete tables. These functions
// never charge cycles — they are ghost code, the analogue of proof
// functions erased at compile time.

// nodeAt returns a live view of the 4 KiB table node at table: its 512
// little-endian entries behind a single bounds check.
func nodeAt(m *hw.PhysMem, table hw.PhysAddr) *[hw.PageSize4K]byte {
	return (*[hw.PageSize4K]byte)(m.Slice(table, hw.PageSize4K))
}

// entry returns entry i of a table node.
func entry(n *[hw.PageSize4K]byte, i int) uint64 {
	return binary.LittleEndian.Uint64(n[i*hw.PtrSize:])
}

// nextPresent returns the index of the first present entry of a table
// node at or after i, or EntriesPerTable if none is. A group of eight
// all-zero entries (one 64-byte line, the common case in sparse tables)
// is skipped with one test.
func nextPresent(n *[hw.PageSize4K]byte, i int) int {
	for i < hw.EntriesPerTable {
		if i%8 == 0 && zero8(n, i) {
			i += 8
			continue
		}
		if entry(n, i)&hw.PtePresent != 0 {
			return i
		}
		i++
	}
	return hw.EntriesPerTable
}

// zero8 reports whether entries i..i+7 of a table node are all zero.
func zero8(n *[hw.PageSize4K]byte, i int) bool {
	g := (*[8 * hw.PtrSize]byte)(n[i*hw.PtrSize:])
	le := binary.LittleEndian
	return le.Uint64(g[0:])|le.Uint64(g[8:])|le.Uint64(g[16:])|le.Uint64(g[24:])|
		le.Uint64(g[32:])|le.Uint64(g[40:])|le.Uint64(g[48:])|le.Uint64(g[56:]) == 0
}

// walkLeaves streams every terminal mapping the concrete radix tree
// encodes to fn, in ascending virtual-address order, reading each table
// node through one PhysMem.Slice. The walk stops at fn's first error
// and returns it. This is the "resolve_mapping" side of the §6.2
// forall.
func (t *PageTable) walkLeaves(fn func(va hw.VirtAddr, e MapEntry) error) error {
	m := t.alloc.Mem()
	l4 := nodeAt(m, t.cr3)
	for i4 := nextPresent(l4, 0); i4 < hw.EntriesPerTable; i4 = nextPresent(l4, i4+1) {
		l3 := nodeAt(m, hw.PhysAddr(entry(l4, i4)&hw.PteAddrMask))
		for i3 := nextPresent(l3, 0); i3 < hw.EntriesPerTable; i3 = nextPresent(l3, i3+1) {
			e3 := entry(l3, i3)
			if e3&hw.PteHuge != 0 {
				if err := fn(hw.VAFromIndices(i4, i3, 0, 0), entryFromPte(e3, hw.Size1G)); err != nil {
					return err
				}
				continue
			}
			l2 := nodeAt(m, hw.PhysAddr(e3&hw.PteAddrMask))
			for i2 := nextPresent(l2, 0); i2 < hw.EntriesPerTable; i2 = nextPresent(l2, i2+1) {
				e2 := entry(l2, i2)
				if e2&hw.PteHuge != 0 {
					if err := fn(hw.VAFromIndices(i4, i3, i2, 0), entryFromPte(e2, hw.Size2M)); err != nil {
						return err
					}
					continue
				}
				l1 := nodeAt(m, hw.PhysAddr(e2&hw.PteAddrMask))
				for i1 := nextPresent(l1, 0); i1 < hw.EntriesPerTable; i1 = nextPresent(l1, i1+1) {
					if err := fn(hw.VAFromIndices(i4, i3, i2, i1), entryFromPte(entry(l1, i1), hw.Size4K)); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// Enumerate returns every terminal mapping of the concrete radix tree,
// keyed by base virtual address: walkLeaves, materialized.
func (t *PageTable) Enumerate() map[hw.VirtAddr]MapEntry {
	out := make(map[hw.VirtAddr]MapEntry)
	_ = t.walkLeaves(func(va hw.VirtAddr, e MapEntry) error { // never fails
		out[va] = e
		return nil
	})
	return out
}

// CheckRefinement validates both directions of the refinement theorem:
//
//  1. for every entry of the abstract maps, an MMU walk from CR3 resolves
//     to the same physical address, size, and permissions;
//  2. every terminal mapping present in the concrete tables appears in
//     the abstract maps (no hidden mappings).
func (t *PageTable) CheckRefinement(mmu *hw.MMU) error {
	check := func(ghost map[hw.VirtAddr]MapEntry, size hw.PageSize) error {
		for va, e := range ghost {
			tr, ok := mmu.Walk(t.cr3, va)
			if !ok {
				return fmt.Errorf("pt: ghost %v mapping %#x not resolved by MMU", size, va)
			}
			if tr.Size != size {
				return fmt.Errorf("pt: %#x resolves at %v, ghost says %v", va, tr.Size, size)
			}
			if tr.Phys != e.Phys {
				return fmt.Errorf("pt: %#x resolves to %#x, ghost says %#x", va, tr.Phys, e.Phys)
			}
			if tr.Writable != e.Perm.Write || tr.User != e.Perm.User || tr.NX == e.Perm.Exec {
				return fmt.Errorf("pt: %#x permission mismatch: hw=%+v ghost=%+v", va, tr, e.Perm)
			}
		}
		return nil
	}
	if err := check(t.ghost4K, hw.Size4K); err != nil {
		return err
	}
	if err := check(t.ghost2M, hw.Size2M); err != nil {
		return err
	}
	if err := check(t.ghost1G, hw.Size1G); err != nil {
		return err
	}
	// Direction 2 streams each concrete mapping against the ghost maps
	// in ascending VA order — the flat design needs no intermediate
	// reconstruction of the address space, so this pass allocates
	// nothing.
	concrete := 0
	err := t.walkLeaves(func(va hw.VirtAddr, ce MapEntry) error {
		concrete++
		var ae MapEntry
		var ok bool
		switch ce.Size {
		case hw.Size4K:
			ae, ok = t.ghost4K[va]
		case hw.Size2M:
			ae, ok = t.ghost2M[va]
		case hw.Size1G:
			ae, ok = t.ghost1G[va]
		}
		if !ok {
			return fmt.Errorf("pt: concrete mapping %#x missing from abstract state", va)
		}
		if ae != ce {
			return fmt.Errorf("pt: %#x concrete %+v != abstract %+v", va, ce, ae)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if concrete != t.MappedCount() {
		return fmt.Errorf("pt: concrete has %d mappings, abstract %d", concrete, t.MappedCount())
	}
	return nil
}

// CheckStructure validates the structural invariants of the radix tree:
// every non-leaf present entry points at a page in the flat node set,
// every node page is allocated to the page-table subsystem, and no node
// is reachable twice (acyclicity / no sharing).
func (t *PageTable) CheckStructure() error {
	seen := seenPool.Get().(mem.PageSet)
	defer seenPool.Put(seen)
	seen.Clear()
	seen.Insert(t.cr3)
	if err := t.checkNode(t.cr3); err != nil {
		return err
	}
	if err := t.checkBelow(seen, t.cr3, 4); err != nil {
		return err
	}
	if !seen.Equal(t.nodes) {
		return fmt.Errorf("pt: flat node set has %d pages, %d reachable", t.nodes.Len(), seen.Len())
	}
	return nil
}

// seenPool holds CheckStructure's reachable-node sets for reuse; checks
// of different kernels may run concurrently.
var seenPool = sync.Pool{New: func() any { return mem.NewPageSet() }}

// checkNode checks that table is in the flat node set and allocated to
// the table's owner.
func (t *PageTable) checkNode(table hw.PhysAddr) error {
	if !t.nodes.Contains(table) {
		return fmt.Errorf("pt: reachable node %#x not in flat node set", table)
	}
	meta, err := t.alloc.Meta(table)
	if err != nil {
		return err
	}
	if meta.State != mem.StateAllocated || meta.Owner != t.owner {
		return fmt.Errorf("pt: node %#x is %v/%v, want allocated/%v", table, meta.State, meta.Owner, t.owner)
	}
	return nil
}

// checkBelow visits, depth first in entry order, every node reachable
// from table (at the given level, 4 = PML4), adding each to seen.
func (t *PageTable) checkBelow(seen mem.PageSet, table hw.PhysAddr, level int) error {
	node := nodeAt(t.alloc.Mem(), table)
	for i := nextPresent(node, 0); i < hw.EntriesPerTable; i = nextPresent(node, i+1) {
		e := entry(node, i)
		if level == 1 || e&hw.PteHuge != 0 {
			continue // terminal mapping, not a node
		}
		next := hw.PhysAddr(e & hw.PteAddrMask)
		if seen.Contains(next) {
			return fmt.Errorf("pt: node %#x reachable twice", next)
		}
		seen.Insert(next)
		if err := t.checkNode(next); err != nil {
			return err
		}
		if err := t.checkBelow(seen, next, level-1); err != nil {
			return err
		}
	}
	return nil
}
