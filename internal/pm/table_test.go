package pm

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"atmosphere/internal/hw"
)

// TestTableMatchesMapModel drives a Table and a map model through the
// same random Put/Delete/Get stream and demands they agree on every
// lookup, on Len, and on iteration (the model's keys, sorted). The
// pointer mix covers frame 0, the last frame, misaligned and
// out-of-range pointers, and slots reused after a delete.
func TestTableMatchesMapModel(t *testing.T) {
	const frames = 300
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable[int](frames)
		model := map[Ptr]*int{}
		last := Ptr((frames - 1) * hw.PageSize4K)
		valid := func() Ptr {
			switch rng.Intn(8) {
			case 0:
				return 0
			case 1:
				return last
			default:
				return Ptr(rng.Intn(frames)) * hw.PageSize4K
			}
		}
		hostile := func() Ptr {
			switch rng.Intn(5) {
			case 0:
				return valid() + Ptr(1+rng.Intn(hw.PageSize4K-1)) // misaligned
			case 1:
				return Ptr(frames) * hw.PageSize4K // one past the end
			case 2:
				return 0xdead_beef
			case 3:
				return 1 << 63
			default:
				return Ptr(rng.Uint64()) &^ (hw.PageSize4K - 1) // aligned, almost surely out of range
			}
		}
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				p, v := valid(), new(int)
				*v = step
				tab.Put(p, v)
				model[p] = v
			case op < 6:
				p := valid()
				if rng.Intn(4) == 0 {
					p = hostile()
				}
				tab.Delete(p)
				delete(model, p)
			default:
				p := valid()
				if rng.Intn(3) == 0 {
					p = hostile()
				}
				got, ok := tab.Get(p)
				want, wok := model[p]
				if ok != wok || got != want {
					t.Fatalf("seed %d step %d: Get(%#x) = %v,%v, model %v,%v", seed, step, p, got, ok, want, wok)
				}
			}
			if tab.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len %d, model %d", seed, step, tab.Len(), len(model))
			}
		}
		keys := make([]Ptr, 0, len(model))
		for p := range model {
			keys = append(keys, p)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		var got []Ptr
		tab.All()(func(p Ptr, v *int) bool {
			if model[p] != v {
				t.Fatalf("seed %d: All yields %#x with the wrong object", seed, p)
			}
			got = append(got, p)
			return true
		})
		if len(got) != len(keys) {
			t.Fatalf("seed %d: All yields %d entries, model has %d", seed, len(got), len(keys))
		}
		for i := range keys {
			if got[i] != keys[i] {
				t.Fatalf("seed %d: All[%d] = %#x, sorted model key %#x", seed, i, got[i], keys[i])
			}
		}
	}
}

// TestTableAllStopsAndToleratesDelete checks the sequence contract: it
// stops when yield returns false, and an entry deleted before it is
// reached is skipped.
func TestTableAllStopsAndToleratesDelete(t *testing.T) {
	tab := NewTable[int](256)
	for f := 0; f < 256; f += 3 {
		tab.Put(Ptr(f)*hw.PageSize4K, new(int))
	}
	n := 0
	tab.All()(func(Ptr, *int) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("All ran yield %d times after a stop at 5", n)
	}
	var seen []Ptr
	tab.All()(func(p Ptr, _ *int) bool {
		seen = append(seen, p)
		tab.Delete(p)
		tab.Delete(p + 3*hw.PageSize4K) // the next live entry, same word or the next
		return true
	})
	for i, p := range seen {
		if want := Ptr(6*i) * hw.PageSize4K; p != want {
			t.Fatalf("after deletes, All[%d] = %#x, want %#x", i, p, want)
		}
	}
	if tab.Len() != 0 {
		t.Fatalf("%d entries left", tab.Len())
	}
}

// TestTablePutRejectsBadPointer: storing an object outside the table is
// a kernel bug and panics instead of corrupting a neighbouring slot.
func TestTablePutRejectsBadPointer(t *testing.T) {
	for _, p := range []Ptr{0x1001, 16 * hw.PageSize4K, 1 << 63} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Put(%#x) did not panic", p)
				}
			}()
			tab := NewTable[int](16)
			tab.Put(p, new(int))
		}()
	}
}

// TestHostilePointers: the Try* forms report false for misaligned,
// out-of-range and freed pointers, and the panicking forms keep their
// permission message instead of failing with an index error.
func TestHostilePointers(t *testing.T) {
	m := newPM(t, 512, 2)
	proc, err := m.NewProcess(m.RootContainer, 0)
	if err != nil {
		t.Fatal(err)
	}
	thrd, err := m.NewThread(proc, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.MarkExited(thrd)
	if err := m.FreeThread(thrd); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Ptr{0xdead_beef, 1 << 63, thrd, m.RootContainer + 1} {
		if _, ok := m.TryCntr(p); ok {
			t.Errorf("TryCntr(%#x) = true", p)
		}
		if _, ok := m.TryProc(p); ok {
			t.Errorf("TryProc(%#x) = true", p)
		}
		if _, ok := m.TryThrd(p); ok {
			t.Errorf("TryThrd(%#x) = true", p)
		}
		if _, ok := m.TryEdpt(p); ok {
			t.Errorf("TryEdpt(%#x) = true", p)
		}
		for kind, deref := range map[string]func(){
			"container": func() { m.Cntr(p) },
			"process":   func() { m.Proc(p) },
			"thread":    func() { m.Thrd(p) },
			"endpoint":  func() { m.Edpt(p) },
		} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.HasPrefix(msg, "pm: dereference of "+kind) ||
						!strings.HasSuffix(msg, "without permission") {
						t.Errorf("%s deref of %#x panicked with %q", kind, p, msg)
					}
				}()
				deref()
			}()
		}
	}
}
