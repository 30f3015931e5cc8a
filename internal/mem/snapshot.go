package mem

import (
	"errors"
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

// Snapshot captures the allocator's abstract state. Every set is rebuilt
// from the page metadata on every call, in one fused pass over the
// packed page kinds; the verifier relies on that to check the allocator
// against a view it did not maintain.
func (a *Allocator) Snapshot() Snapshot {
	var s Snapshot
	a.build(&s, nil)
	return s
}

// SnapshotClosures returns Snapshot together with the process-manager,
// page-table and IOMMU closures, all built by the same single pass.
func (a *Allocator) SnapshotClosures() (Snapshot, Closures) {
	var s Snapshot
	var c Closures
	a.build(&s, &c)
	return s, c
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
func (a *Allocator) CheckFreeList(sc SizeClass, want PageSet) error {
	limit := want.Len()
	n := 0
	for i := a.head[sc]; i != nilIdx; i = a.links[i].Next {
		// A corrupt negative link converts to a frame out of range.
		if !want.hasFrame(uint64(i)) {
			return ErrFreeListMismatch
		}
		if n++; n > limit {
			return ErrFreeListCycle
		}
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
	for i := a.head[sc]; i != nilIdx; i = a.links[i].Next {
		s.insertFrame(uint64(i))
		if steps++; steps > len(a.kinds) {
			panic("mem: free list cycle")
		}
	}
	return s
}
