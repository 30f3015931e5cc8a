package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"atmosphere/internal/hw"
)

// fakeTracer returns a tracer whose clock is set by the test.
func fakeTracer(now *int64) *tracer {
	t := newTracer()
	t.clock = func() int64 { return *now }
	return t
}

// TestSelfTime checks the self-time arithmetic on nested spans: a
// span's self time is its duration minus its direct children's, and
// grandchildren count only against their own parent.
func TestSelfTime(t *testing.T) {
	var now int64
	tr := fakeTracer(&now)
	// total_wf [0,100] > wf0 [10,40] , wf1 [50,90] > abstract [60,70]
	tr.begin(lTotalWF, nil)
	now = 10
	tr.begin(lWF0, nil)
	now = 40
	tr.end(false)
	now = 50
	tr.begin(lWF0+1, nil)
	now = 60
	tr.begin(lAbstract, nil)
	now = 70
	tr.end(false)
	now = 90
	tr.end(true)
	now = 100
	tr.end(false)

	check := func(l layer, busy, self int64, count, errnos uint64) {
		t.Helper()
		a := tr.agg[l]
		if a.busyNs != busy || a.selfNs != self || a.count != count || a.errnos != errnos {
			t.Errorf("%s: busy %d self %d count %d errnos %d; want %d %d %d %d",
				layerNames[l], a.busyNs, a.selfNs, a.count, a.errnos, busy, self, count, errnos)
		}
	}
	check(lTotalWF, 100, 100-30-40, 1, 0)
	check(lWF0, 30, 30, 1, 0)
	check(lWF0+1, 40, 30, 1, 1)
	check(lAbstract, 10, 10, 1, 0)

	// Retained spans keep their parent links.
	if len(tr.spans) != 4 || tr.spans[1].parent != 0 || tr.spans[3].parent != 2 || tr.spans[0].parent != -1 {
		t.Errorf("span parents wrong: %+v", tr.spans)
	}
}

func TestSpanCycles(t *testing.T) {
	var now int64
	tr := fakeTracer(&now)
	var clk hw.Clock
	tr.request(7)
	tr.begin(lCall, &clk)
	clk.Charge(123)
	tr.end(false)
	if tr.agg[lCall].cycles != 123 {
		t.Errorf("cycles %d, want 123", tr.agg[lCall].cycles)
	}
	if tr.spans[0].req != 7 {
		t.Errorf("request id %d, want 7", tr.spans[0].req)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	tr.request(1)
	tr.begin(lCall, nil)
	tr.end(true)
}

func TestWriteChrome(t *testing.T) {
	var now int64
	tr := fakeTracer(&now)
	tr.begin(lServe, nil)
	now = 1500
	tr.end(false)
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 1 || doc.TraceEvents[0].Name != "apps.kvstore.serve" || doc.TraceEvents[0].Dur != 1.5 {
		t.Errorf("events %+v", doc.TraceEvents)
	}
}
