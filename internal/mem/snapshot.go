package mem

import (
	"errors"
	"fmt"
	"math/bits"
)

// --- explicit allocator state (ghost view) ----------------------------------

// Snapshot is the abstract state of the allocator: the page sets the
// paper's specifications quantify over. Building it is one O(frames)
// pass over the packed page kinds; the kernel exposes it to the
// verifier, never to hot paths.
type Snapshot struct {
	Free4K    PageSet
	Free2M    PageSet
	Free1G    PageSet
	Allocated PageSet
	Mapped    PageSet
	Merged    PageSet
	Boot      PageSet
	// PCache is the subset of Allocated parked in per-core page-frame
	// caches (OwnerPCache). Specs treat these as free at the abstract
	// level — the cache is an implementation detail of the allocator —
	// while the closure checks still see them as allocated.
	PCache PageSet
}

// Closures are the per-subsystem page closures the verifier checks
// against the kernel's own bookkeeping: the pages allocated to each
// owner. The page-cache closure is Snapshot.PCache.
type Closures struct {
	ProcessMgr PageSet
	PageTable  PageSet
	IOMMU      PageSet
}

// snapMemo is one full rebuild of the snapshot and the closures, taken
// at write generation gen. ok is false until the first rebuild.
// freeOK[sc] records that the free list of class sc passed
// CheckFreeList against snap's free set of that class; a rebuild
// replaces the whole memo and so clears it.
type snapMemo struct {
	ok     bool
	gen    uint64
	snap   Snapshot
	cl     Closures
	freeOK [3]bool
}

// Snapshot captures the allocator's abstract state: the Snapshot half
// of SnapshotClosures. The sets are shared and read-only. Like
// SnapshotClosures it may update the memo, so it must not run
// concurrently with any other call on the same allocator.
func (a *Allocator) Snapshot() Snapshot {
	s, _ := a.SnapshotClosures()
	return s
}

// SnapshotClosures returns Snapshot together with the process-manager,
// page-table and IOMMU closures. They come from one fused pass over the
// packed page kinds, run at most once per write generation: calls with
// no page-kind, free-link or list-head write in between return the same
// sets. A later rebuild builds new sets and never writes a returned
// one, so callers may keep them across writes, but must not modify
// them. A call after a write stores the rebuild in the allocator: it is
// a write to the allocator, not safe concurrently with any other call
// on it.
func (a *Allocator) SnapshotClosures() (Snapshot, Closures) {
	if !a.memo.ok || a.memo.gen != a.gen {
		a.memo = snapMemo{ok: true, gen: a.gen}
		a.build(&a.memo.snap, &a.memo.cl)
	}
	return a.memo.snap, a.memo.cl
}

// CheckMemo is the differential check of the generation discipline: it
// rebuilds the snapshot, the closures and each free list's verdict from
// the page metadata and reports the first memoized value that disagrees
// with the rebuild. A write that skipped its generation bump shows up
// here as a stale set.
func (a *Allocator) CheckMemo() error {
	s, c := a.SnapshotClosures()
	var fs Snapshot
	var fc Closures
	a.build(&fs, &fc)
	for _, p := range [...]struct {
		name       string
		memo, want PageSet
	}{
		{"Free4K", s.Free4K, fs.Free4K}, {"Free2M", s.Free2M, fs.Free2M},
		{"Free1G", s.Free1G, fs.Free1G}, {"Allocated", s.Allocated, fs.Allocated},
		{"Mapped", s.Mapped, fs.Mapped}, {"Merged", s.Merged, fs.Merged},
		{"Boot", s.Boot, fs.Boot}, {"PCache", s.PCache, fs.PCache},
		{"ProcessMgr", c.ProcessMgr, fc.ProcessMgr}, {"PageTable", c.PageTable, fc.PageTable},
		{"IOMMU", c.IOMMU, fc.IOMMU},
	} {
		if !p.memo.Equal(p.want) {
			return fmt.Errorf("mem: memoized %s set has %d pages, rebuild %d (generation %d)",
				p.name, p.memo.Len(), p.want.Len(), a.gen)
		}
	}
	for sc, want := range [...]PageSet{s.Free4K, s.Free2M, s.Free1G} {
		// Both return the free-list sentinels bare.
		got, fresh := a.CheckFreeList(SizeClass(sc), want), a.walkFreeList(SizeClass(sc), want)
		if got != fresh {
			return fmt.Errorf("mem: memoized %v free-list verdict %v, walk %v", SizeClass(sc), got, fresh)
		}
	}
	return nil
}

// AllocatedTo returns the set of pages allocated to owner — the raw
// material of per-subsystem page_closure() checks.
func (a *Allocator) AllocatedTo(owner Owner) PageSet {
	var s PageSet
	newSizedPageSets(len(a.kinds), &s)
	var plan scanPlan
	if owner <= ownerMax {
		plan.feed(cellOwned+int(owner), s)
	}
	a.scan(&plan)
	return s
}

// build sizes s (and c, if not nil) and fills them in one scan.
func (a *Allocator) build(s *Snapshot, c *Closures) {
	sets := [...]*PageSet{&s.Free4K, &s.Free2M, &s.Free1G, &s.Allocated,
		&s.Mapped, &s.Merged, &s.Boot, &s.PCache, nil, nil, nil}
	n := 8
	if c != nil {
		sets[8], sets[9], sets[10] = &c.ProcessMgr, &c.PageTable, &c.IOMMU
		n = len(sets)
	}
	newSizedPageSets(len(a.kinds), sets[:n]...)
	var plan scanPlan
	plan.feed(cellFree4K, s.Free4K)
	plan.feed(cellFree2M, s.Free2M)
	plan.feed(cellFree1G, s.Free1G)
	plan.feed(cellMapped, s.Mapped)
	plan.feed(cellMerged, s.Merged)
	for o := 0; o <= ownerMax; o++ {
		if Owner(o) == OwnerBoot {
			plan.feed(cellOwned+o, s.Boot)
		} else {
			plan.feed(cellOwned+o, s.Allocated)
		}
	}
	plan.feed(cellOwned+int(OwnerPCache), s.PCache)
	if c != nil {
		plan.feed(cellOwned+int(OwnerProcessMgr), c.ProcessMgr)
		plan.feed(cellOwned+int(OwnerPageTable), c.PageTable)
		plan.feed(cellOwned+int(OwnerIOMMU), c.IOMMU)
	}
	a.scan(&plan)
}

// --- the fused scan -----------------------------------------------------------

// Scan cells. Every frame falls in exactly one cell, a function of its
// pageKind alone; each set the scan builds is a union of cells.
const (
	cellFree4K = iota
	cellFree2M
	cellFree1G
	cellMapped
	cellMerged
	cellNone  // in no set: free with no valid size, or not a packed kind
	cellOwned // cellOwned+o: allocated to owner o
	nCells    = cellOwned + ownerMax + 1
)

// kindCell maps every byte value to its cell.
var kindCell = func() (t [256]uint8) {
	for b := range t {
		k := pageKind(b)
		c := cellNone
		switch {
		case b>>(kindOwnerShift+3) != 0:
			// Outside the packed layout: in no set.
		case k.state() == StateFree && k.size() == Size4K:
			c = cellFree4K
		case k.state() == StateFree && k.size() == Size2M:
			c = cellFree2M
		case k.state() == StateFree && k.size() == Size1G:
			c = cellFree1G
		case k.state() == StateMapped:
			c = cellMapped
		case k.state() == StateMerged:
			c = cellMerged
		case k.state() == StateAllocated:
			c = cellOwned + int(k.owner())
		}
		t[b] = uint8(c)
	}
	return t
}()

// scanPlan names, per cell, the (at most two) sets its frames go to.
type scanPlan [nCells][2]*pageBits

// feed adds s to the sets cell c's frames go to.
func (p *scanPlan) feed(c int, s PageSet) {
	if p[c][0] == nil {
		p[c][0] = s.b
	} else {
		p[c][1] = s.b
	}
}

// scan is the one pass over the page kinds behind Snapshot,
// SnapshotClosures and AllocatedTo. It fills one output word (64
// frames) at a time, reading the kinds eight at a time:
//
//   - a word of 64 identical kinds (long free, boot and merged runs) is
//     one cell, written straight to its sets;
//   - a run of 8 identical kinds extends the current cell's run, which
//     stays in a register until the cell changes;
//   - a mixed group of 8 is split by distinct kind: the lanes holding
//     each kind, found with one SWAR compare, go to its cell's
//     accumulator together.
//
// Each cell's accumulator is then ORed into the sets the plan feeds it
// to.
func (a *Allocator) scan(plan *scanPlan) {
	kinds := a.kinds
	for w := 0; w*64 < len(kinds); w++ {
		chunk := kinds[w*64 : min(w*64+64, len(kinds))]
		if len(chunk) == 64 {
			x := load8(chunk[0:])
			diff := x ^ uint64(uint8(x))*0x0101010101010101
			for j := 8; j < 64; j += 8 {
				diff |= load8(chunk[j:]) ^ x
			}
			if diff == 0 {
				plan.emit(w, kindCell[uint8(x)], ^uint64(0))
				continue
			}
		}
		var acc [16]uint64
		cur, run := kindCell[chunk[0]], uint64(0)
		j := 0
		for ; j+8 <= len(chunk); j += 8 {
			x := load8(chunk[j:])
			if x != uint64(uint8(x))*0x0101010101010101 {
				for rest := uint64(0xff); rest != 0; {
					k := uint8(x >> (8 * bits.TrailingZeros64(rest)))
					// Always including k's own lane guarantees progress.
					m := (lanesEqual(x, k) | rest&-rest) & rest
					acc[kindCell[k]&15] |= m << j
					rest &^= m
				}
				continue
			}
			if c := kindCell[uint8(x)]; c != cur {
				acc[cur&15] |= run
				cur, run = c, 0
			}
			run |= 0xff << j
		}
		for ; j < len(chunk); j++ {
			acc[kindCell[chunk[j]]&15] |= 1 << j
		}
		acc[cur&15] |= run
		for c := range plan {
			if acc[c] != 0 {
				plan.emit(w, uint8(c), acc[c])
			}
		}
	}
}

// load8 returns the first eight kinds of c as one little-endian word.
func load8(c []pageKind) uint64 {
	c8 := c[:8:8]
	return uint64(c8[0]) | uint64(c8[1])<<8 | uint64(c8[2])<<16 | uint64(c8[3])<<24 |
		uint64(c8[4])<<32 | uint64(c8[5])<<40 | uint64(c8[6])<<48 | uint64(c8[7])<<56
}

// lanesEqual returns a bit per byte of x (bit i for byte i) that is set
// where the byte equals k.
func lanesEqual(x uint64, k uint8) uint64 {
	const lo7 = 0x7f7f7f7f7f7f7f7f
	y := x ^ uint64(k)*0x0101010101010101 // zero bytes where equal
	hi := ^((y&lo7 + lo7) | y | lo7)      // 0x80 in exactly those bytes
	return (hi >> 7) * 0x0102040810204080 >> 56
}

// emit ORs frames m of word w, all in cell c, into the sets c feeds.
func (p *scanPlan) emit(w int, c uint8, m uint64) {
	for _, d := range p[c] {
		if d != nil {
			d.words[w] |= m
			d.n += bits.OnesCount64(m)
		}
	}
}

// --- free lists -----------------------------------------------------------------

// Free-list check failures.
var (
	ErrFreeListMismatch = errors.New("mem: free list disagrees with page states")
	ErrFreeListCycle    = errors.New("mem: free list has a cycle")
)

// CheckFreeList walks the free list of sc against want, the snapshot's
// free set of that class, without building a set: every node must be a
// member of want and the list must hold exactly want.Len() nodes. A
// list that revisits a node fails with ErrFreeListCycle instead of
// looping: once more nodes than want holds have all been members, one
// of them repeated.
//
// When want is the memoized snapshot's own set, a passing verdict is
// remembered in the memo until the write generation moves: neither the
// list nor want can have changed in between. Recording it writes the
// allocator, so CheckFreeList must not run concurrently with any other
// call on the same allocator.
func (a *Allocator) CheckFreeList(sc SizeClass, want PageSet) error {
	memoSet := a.memo.ok && a.memo.gen == a.gen && want.b == a.memo.freeSet(sc).b
	if memoSet && a.memo.freeOK[sc] {
		return nil
	}
	err := a.walkFreeList(sc, want)
	if err == nil && memoSet {
		a.memo.freeOK[sc] = true
	}
	return err
}

// freeSet returns the snapshot's free set of class sc.
func (m *snapMemo) freeSet(sc SizeClass) PageSet {
	switch sc {
	case Size4K:
		return m.snap.Free4K
	case Size2M:
		return m.snap.Free2M
	}
	return m.snap.Free1G
}

// walkFreeList is CheckFreeList's walk. It reads every node's Next link,
// but takes a run of nodes linked j -> j+1 (the ascending order boot
// leaves the 4 KiB list in) as one stretch whose membership in want is
// tested 64 frames at a time. The verdict is the one-node-at-a-time
// walk's: a stretch is charged node by node up to its first non-member,
// so the count overflows (ErrFreeListCycle) or the non-member is
// reported (ErrFreeListMismatch) exactly where that walk would.
func (a *Allocator) walkFreeList(sc SizeClass, want PageSet) error {
	limit := want.Len()
	next := a.next
	n := 0
	for i := a.head[sc]; i != nilIdx; {
		// A corrupt negative link converts to a frame out of range.
		if !want.hasFrame(uint64(i)) {
			return ErrFreeListMismatch
		}
		j := i
		for int(j)+8 < len(next) {
			l := (*[8]int32)(next[j : j+8])
			if (l[0]^(j+1))|(l[1]^(j+2))|(l[2]^(j+3))|(l[3]^(j+4))|
				(l[4]^(j+5))|(l[5]^(j+6))|(l[6]^(j+7))|(l[7]^(j+8)) != 0 {
				break
			}
			j += 8
		}
		for int(j)+1 < len(next) && next[j] == j+1 {
			j++
		}
		miss := want.firstAbsent(uint64(i)+1, uint64(j))
		if n+int(miss-uint64(i)) > limit {
			return ErrFreeListCycle
		}
		if miss <= uint64(j) {
			return ErrFreeListMismatch
		}
		n += int(j-i) + 1
		i = next[j]
	}
	if n != limit {
		return ErrFreeListMismatch
	}
	return nil
}

// FreeListSet walks the free list of sc into a set, for tests that
// inspect the list's members. A cycle in the list panics.
func (a *Allocator) FreeListSet(sc SizeClass) PageSet {
	var s PageSet
	newSizedPageSets(len(a.kinds), &s)
	steps := 0
	for i := a.head[sc]; i != nilIdx; i = a.next[i] {
		s.insertFrame(uint64(i))
		if steps++; steps > len(a.kinds) {
			panic("mem: free list cycle")
		}
	}
	return s
}
