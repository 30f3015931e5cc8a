package mck

import (
	"fmt"
	"testing"

	"atmosphere/internal/kernel"
	"atmosphere/internal/pm"
	"atmosphere/internal/verify"
)

// TestMemosOnCorpus is the differential test of the checker's memos:
// every corpus program (both generator dialects and every checked-in
// repro) runs under verify.Checker with a verify.MemoAudit after every
// transition, so each memoized snapshot, closure set, free-list verdict
// and address space must equal a fresh rebuild, and no published
// address space may be written.
func TestMemosOnCorpus(t *testing.T) {
	var corpus []Program
	for seed := uint64(1); seed <= 6; seed++ {
		corpus = append(corpus, Generate(seed, 120), GenerateBatched(seed, 120))
	}
	corpus = append(corpus, loadRepros(t, "repro_*.repro")...)
	for i, p := range corpus {
		var audit verify.MemoAudit
		var failure error
		steps := 0
		opt := Options{Hook: func(k *kernel.Kernel) {
			k.PostSyscall = func(name string, _ pm.Ptr, _ kernel.Ret) {
				steps++
				if err := audit.Step(k); err != nil && failure == nil {
					failure = fmt.Errorf("step %d (%s): %w", steps, name, err)
				}
			}
		}}
		if _, err := RunChecked(p, opt); err != nil {
			t.Fatalf("program %d: checked run: %v", i, err)
		}
		if failure != nil {
			t.Fatalf("program %d: %v\nrepro:\n%s", i, failure, p.EncodeRepro())
		}
		if steps == 0 || audit.Published() == 0 {
			t.Fatalf("program %d: audit saw %d steps and %d published spaces", i, steps, audit.Published())
		}
	}
}
