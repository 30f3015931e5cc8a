package main

import (
	"testing"
)

// onePass runs one pass of a workload and returns its results.
func onePass(t *testing.T, name string, seed uint64, traced bool) *pass {
	t.Helper()
	res := &result{name: name, seed: seed}
	var tr *tracer
	if traced {
		tr = newTracer()
		res.tracer = tr
	}
	if err := res.runPass(tr); err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("%s seed %d: %d failed ops", name, seed, res.failed)
	}
	if traced {
		return res.firstTraced
	}
	return res.first
}

// TestSameSeedSameDigest: one seed reproduces every simulated value,
// and the traced pass reproduces the untraced pass's simulated time —
// the harness's spans are cycle-free.
func TestSameSeedSameDigest(t *testing.T) {
	names := []string{"kv-rpc", "kv-batch", "cluster", "checked"}
	if testing.Short() {
		names = names[:3]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			a := onePass(t, name, defaultSeed, false)
			b := onePass(t, name, defaultSeed, false)
			if a.digest(true) != b.digest(true) {
				t.Errorf("same seed, digests %#x and %#x", a.digest(true), b.digest(true))
			}
			tr := onePass(t, name, defaultSeed, true)
			if a.digest(false) != tr.digest(false) {
				t.Errorf("traced cycle digest %#x differs from untraced %#x", tr.digest(false), a.digest(false))
			}
		})
	}
}

// TestSeedChangesInputs: a different seed gives different generated
// inputs, and so a different simulated run.
func TestSeedChangesInputs(t *testing.T) {
	s1, err := newKVShard(defaultSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := newKVShard(heldOutSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < 1000; i++ {
		r1, _ := s1.nextReq()
		r2, _ := s2.nextReq()
		if r1 == r2 {
			same++
		}
	}
	if same > 10 {
		t.Errorf("%d of 1000 requests equal across seeds", same)
	}
	c1, c2 := newChecked(defaultSeed, nil).(*checked), newChecked(heldOutSeed, nil).(*checked)
	if c1.gen.next() == c2.gen.next() {
		t.Error("checked op stream does not depend on the seed")
	}
	for _, name := range []string{"kv-rpc", "cluster"} {
		a, b := onePass(t, name, defaultSeed, false), onePass(t, name, heldOutSeed, false)
		if a.digest(true) == b.digest(true) {
			t.Errorf("%s: seeds %d and %d give the same digest", name, defaultSeed, heldOutSeed)
		}
	}
}

// TestShadowCatchesWrongReply: the kv check counts every reply that
// disagrees with the shadow (here a shadow that forgot every key).
func TestShadowCatchesWrongReply(t *testing.T) {
	w := newKVRPC(defaultSeed, nil).(*kvRPC)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := w.round(i); err != nil {
			t.Fatal(err)
		}
	}
	if w.failed != 0 {
		t.Fatalf("%d failures before corruption", w.failed)
	}
	for _, s := range w.shards {
		for j := range s.present {
			if s.present[j] {
				s.present[j] = false // the shadow now expects misses the store will hit
			}
		}
	}
	for i := 200; i < 2000; i++ {
		if err := w.round(i); err != nil {
			t.Fatal(err)
		}
	}
	if w.failed == 0 {
		t.Error("corrupted shadow produced no failures")
	}
}
