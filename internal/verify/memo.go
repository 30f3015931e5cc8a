package verify

import (
	"fmt"
	"maps"
	"reflect"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/pt"
)

// CheckMemos compares every memoized view the checker reads against a
// fresh rebuild: the allocator's snapshot, closures and free-list
// verdicts, and the address space of every process and IOMMU domain.
// A memo is rebuilt only when its owner's write generation moves, so a
// write that skipped its bump shows up here as a stale value.
func CheckMemos(k *kernel.Kernel) error {
	if err := k.Alloc.CheckMemo(); err != nil {
		return err
	}
	if err := each(&k.PM.ProcPerms, func(ptr pm.Ptr, proc *pm.Process) error {
		if err := proc.PageTable.CheckMemo(); err != nil {
			return fmt.Errorf("process %#x: %w", ptr, err)
		}
		return nil
	}); err != nil {
		return err
	}
	for id, d := range k.IOMMU.Domains() {
		if err := d.Table.CheckMemo(); err != nil {
			return fmt.Errorf("iommu domain %d: %w", id, err)
		}
	}
	return nil
}

// MemoAudit runs CheckMemos after each transition and also checks that
// no address-space map a memo has published is written afterwards: a
// published map is shared by every Ψ that read it, and by kernel code
// still iterating it, so it must stay exactly as built. The audit keeps
// each published map it has seen, keyed by identity, with a copy taken
// when it first saw it, and compares the two on every step. Holding the
// maps keeps their identities from being reused.
type MemoAudit struct {
	published map[uintptr]publishedSpace
}

type publishedSpace struct {
	space, copy map[hw.VirtAddr]pt.MapEntry
}

// Step checks the kernel's memos and every published map seen so far.
func (a *MemoAudit) Step(k *kernel.Kernel) error {
	if err := CheckMemos(k); err != nil {
		return err
	}
	if a.published == nil {
		a.published = make(map[uintptr]publishedSpace)
	}
	note := func(t *pt.PageTable) {
		s := t.AddressSpace()
		if id := reflect.ValueOf(s).Pointer(); a.published[id].space == nil {
			a.published[id] = publishedSpace{s, maps.Clone(s)}
		}
	}
	k.PM.ProcPerms.All()(func(_ pm.Ptr, proc *pm.Process) bool {
		note(proc.PageTable)
		return true
	})
	for _, d := range k.IOMMU.Domains() {
		note(d.Table)
	}
	for _, p := range a.published {
		if !maps.Equal(p.space, p.copy) {
			return fmt.Errorf("a published address space (%d mappings when published, %d now) was written",
				len(p.copy), len(p.space))
		}
	}
	return nil
}

// Published returns how many distinct published maps the audit holds.
func (a *MemoAudit) Published() int { return len(a.published) }
