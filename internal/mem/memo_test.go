package mem

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
	"testing"

	"atmosphere/internal/hw"
)

// refWalk is the plain one-node-at-a-time free-list walk, kept as the
// reference walkFreeList's run scan must agree with error for error.
func refWalk(a *Allocator, sc SizeClass, want PageSet) error {
	limit := want.Len()
	n := 0
	for i := a.head[sc]; i != nilIdx; i = a.next[i] {
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

// sameVerdict fails the test unless the run scan and the reference walk
// return the same error for list sc against want.
func sameVerdict(t *testing.T, what string, a *Allocator, sc SizeClass, want PageSet) error {
	t.Helper()
	got, ref := a.walkFreeList(sc, want), refWalk(a, sc, want)
	if got != ref {
		t.Fatalf("%s: run scan says %v, reference walk %v", what, got, ref)
	}
	return got
}

// TestMemoMatchesRebuild drives random allocator histories (alloc,
// free, refcounts, core caches, merge, split) and checks after every
// step that the memoized snapshot, closures and free-list verdicts
// equal a fresh rebuild, and that the run scan agrees with the
// reference walk on both free lists. Snapshots are taken twice per step
// so the memo-hit path is exercised too.
func TestMemoMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		s := newScanModel(t, seed, 2048+int(seed*29%64))
		a := s.a
		for i := 0; i < 300; i++ {
			s.step()
			snap, _ := a.SnapshotClosures()
			if again, _ := a.SnapshotClosures(); again.Free4K.b != snap.Free4K.b {
				t.Fatalf("seed %d step %d: unchanged allocator rebuilt its snapshot", seed, i)
			}
			sameVerdict(t, fmt.Sprintf("seed %d step %d 4K", seed, i), a, Size4K, snap.Free4K)
			sameVerdict(t, fmt.Sprintf("seed %d step %d 2M", seed, i), a, Size2M, snap.Free2M)
			if err := a.CheckFreeList(Size4K, snap.Free4K); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
			if err := a.CheckMemo(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
		}
	}
}

// TestMissedBumpCaught plants the bug the generation discipline exists
// to prevent, a metadata write that skips its bump, and requires the
// differential check to catch it: a page-kind write leaves a stale
// snapshot, and a Next write leaves a stale free-list verdict.
func TestMissedBumpCaught(t *testing.T) {
	a := newTestAlloc(256)
	p, err := a.AllocPage4K(OwnerProcessMgr)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckMemo(); err != nil {
		t.Fatal(err)
	}
	f := int32(p / hw.PageSize4K)
	a.kinds[f] = makeKind(StateAllocated, Size4K, OwnerPageTable) // no bump
	if err := a.CheckMemo(); err == nil {
		t.Fatal("page-kind write without a generation bump went unnoticed")
	}
	a.setKind(f, StateAllocated, Size4K, OwnerPageTable)
	if err := a.CheckMemo(); err != nil {
		t.Fatalf("after a bumped write: %v", err)
	}

	snap := a.Snapshot()
	if err := a.CheckFreeList(Size4K, snap.Free4K); err != nil {
		t.Fatal(err)
	}
	a.next[a.head[Size4K]] = nilIdx // no bump: truncates the list
	if err := a.CheckMemo(); err == nil {
		t.Fatal("free-link write without a generation bump went unnoticed")
	}
}

// TestRunScanHostileLists compares the run scan with the reference walk
// on corrupted lists: each case corrupts the links or the wanted set of
// a freshly booted allocator (one ascending run) and both walks must
// return the same, named error.
func TestRunScanHostileLists(t *testing.T) {
	const frames = 300 // not a multiple of 64: a partial last word
	for _, c := range []struct {
		name    string
		corrupt func(a *Allocator, want PageSet) PageSet
		err     error
	}{
		{"clean", func(a *Allocator, want PageSet) PageSet { return want }, nil},
		{"run broken mid-way", func(a *Allocator, want PageSet) PageSet {
			a.next[100] = 102
			return want
		}, ErrFreeListMismatch},
		{"negative link", func(a *Allocator, want PageSet) PageSet {
			a.next[150] = -7
			return want
		}, ErrFreeListMismatch},
		{"out-of-range link", func(a *Allocator, want PageSet) PageSet {
			a.next[150] = frames + 40
			return want
		}, ErrFreeListMismatch},
		{"cycle inside the run", func(a *Allocator, want PageSet) PageSet {
			a.next[200] = 120
			return want
		}, ErrFreeListCycle},
		{"run ending at the last frame", func(a *Allocator, want PageSet) PageSet {
			a.next[frames-1] = frames
			return want
		}, ErrFreeListMismatch},
		{"head missing from want", func(a *Allocator, want PageSet) PageSet {
			w := want.Clone()
			w.Remove(hw.PhysAddr(uint64(a.head[Size4K]) * hw.PageSize4K))
			return w
		}, ErrFreeListMismatch},
		{"mid-run frame missing from want", func(a *Allocator, want PageSet) PageSet {
			w := want.Clone()
			w.Remove(hw.PhysAddr(130 * hw.PageSize4K))
			return w
		}, ErrFreeListMismatch},
		{"cycle overflows before a missing frame", func(a *Allocator, want PageSet) PageSet {
			a.next[50] = 10
			w := want.Clone()
			w.Remove(hw.PhysAddr(200 * hw.PageSize4K)) // past the cycle: never reached
			return w
		}, ErrFreeListCycle},
	} {
		a := newTestAlloc(frames)
		want := c.corrupt(a, a.Snapshot().Free4K)
		if err := sameVerdict(t, c.name, a, Size4K, want); err != c.err {
			t.Fatalf("%s: got %v, want %v", c.name, err, c.err)
		}
	}
}

// TestRunScanRandomCorruption applies random link and membership
// corruptions to random allocator histories and requires the run scan
// and the reference walk to agree every time.
func TestRunScanRandomCorruption(t *testing.T) {
	verdicts := map[error]int{}
	for trial := 0; trial < 400; trial++ {
		s := newScanModel(t, int64(1000+trial), 600+trial%70)
		for i := 0; i < trial%40; i++ {
			s.step()
		}
		a, r := s.a, s.r
		want := a.Snapshot().Free4K.Clone()
		frames := int32(a.Frames())
		for k := 0; k < 1+r.Intn(3); k++ {
			j := int32(r.Intn(int(frames)))
			switch r.Intn(6) {
			case 0:
				a.next[j] = j + 2
			case 1:
				a.next[j] = int32(r.Intn(int(frames)+8)) - 4
			case 2:
				a.next[j] = j - int32(r.Intn(20))
			case 3:
				a.head[Size4K] = j
			case 4:
				want.Remove(hw.PhysAddr(uint64(j) * hw.PageSize4K))
			case 5:
				want.Insert(hw.PhysAddr(uint64(j) * hw.PageSize4K))
			}
		}
		verdicts[sameVerdict(t, fmt.Sprintf("trial %d", trial), a, Size4K, want)]++
	}
	for _, err := range []error{nil, ErrFreeListMismatch, ErrFreeListCycle} {
		if verdicts[err] == 0 {
			t.Fatalf("no trial ended in %v: %v", err, verdicts)
		}
	}
}

// TestMemoWritersGuarded pins the generation discipline at the source
// level, in this package and in internal/pt: in the non-test files, the
// state a memo is derived from is written only by its designated
// writers, each of which bumps the owner's generation, and by the
// constructor. Here that is the page kinds, the Next and Prev links and
// the list heads; in pt, the ghost maps and the node set.
func TestMemoWritersGuarded(t *testing.T) {
	memRules := map[string][]string{
		"kinds": {"setKind"},
		"next":  {"setNext"},
		"Next":  nil,
		"Prev":  {"setPrev"},
		"links": nil,
		"head":  {"setHead"},
	}
	ghost := []string{"mapGhost", "unmapGhost"}
	ptRules := map[string][]string{
		"ghost4K": ghost, "ghost2M": ghost, "ghost1G": ghost,
		"nodes": {"addNode", "dropNode", "resetNodes"},
		"space": {"AddressSpace"}, "spaceGen": {"AddressSpace"},
	}
	for _, pkg := range []struct {
		dir, name, ctor string
		rules           map[string][]string
	}{{".", "mem", "NewAllocator", memRules}, {"../pt", "pt", "NewOwned", ptRules}} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, pkg.dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, f := range pkgs[pkg.name].Files {
			files = append(files, f)
		}
		if len(files) == 0 {
			t.Fatalf("no %s sources parsed in %s", pkg.name, pkg.dir)
		}
		if bad := unguardedWrites(fset, files, pkg.rules, pkg.ctor); len(bad) != 0 {
			t.Fatalf("memoized %s state written outside its designated writers:\n%s",
				pkg.name, strings.Join(bad, "\n"))
		}
	}
	// The check has teeth: planted writes are reported.
	fset := token.NewFileSet()
	planted, err := parser.ParseFile(fset, "planted.go", `package mem
func (a *Allocator) evil(i int32) { a.kinds[i] = 0; a.links[i].Prev = 1 }
func (t *PageTable) evil(va VirtAddr) { delete(t.ghost4K, va); t.nodes.Insert(0) }
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	rules := map[string][]string{"kinds": nil, "Prev": nil, "ghost4K": nil, "nodes": nil}
	if bad := unguardedWrites(fset, []*ast.File{planted}, rules, ""); len(bad) != 4 {
		t.Fatalf("planted writes reported as %q, want four", bad)
	}
}

// unguardedWrites returns every write in files to a field named in
// rules from a function outside that field's writers (ctor may write
// anything). A write is an assignment, an increment or decrement,
// clear/copy/delete of the field or of an element of it, or a call of
// a PageSet mutator (Insert, Remove, Union, Clear) on it; the field is
// the last selector of the written expression, after indexing.
func unguardedWrites(fset *token.FileSet, files []*ast.File, rules map[string][]string, ctor string) []string {
	var bad []string
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == ctor {
				continue
			}
			check := func(e ast.Expr) {
				field := writtenField(e)
				writers, guarded := rules[field]
				if !guarded {
					return
				}
				for _, w := range writers {
					if w == fd.Name.Name {
						return
					}
				}
				bad = append(bad, fmt.Sprintf("%s: %s writes %s", fset.Position(e.Pos()), fd.Name.Name, field))
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						check(l)
					}
				case *ast.IncDecStmt:
					check(n.X)
				case *ast.CallExpr:
					switch fn := n.Fun.(type) {
					case *ast.Ident:
						if len(n.Args) > 0 && (fn.Name == "clear" || fn.Name == "copy" || fn.Name == "delete") {
							check(n.Args[0])
						}
					case *ast.SelectorExpr:
						switch fn.Sel.Name {
						case "Insert", "Remove", "Union", "Clear":
							check(fn.X)
						}
					}
				}
				return true
			})
		}
	}
	sort.Strings(bad)
	return bad
}

// writtenField returns the field name a written expression ends in
// (x.f, x.f[i], x.f[i][j]), or "" for a local variable.
func writtenField(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		default:
			return ""
		}
	}
}
