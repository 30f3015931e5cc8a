package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"atmosphere/internal/hw"
	"atmosphere/internal/kernel"
)

// layer names one boundary the benchmark crosses into the program. The
// metric prefix is the layer name; each boundary reports .count,
// .busy_ms and .self_ms, and the ones with a failure notion also
// .errno_count.
type layer int

const (
	lCall layer = iota
	lRecv
	lReplyRecv
	lMmap
	lMunmap
	lNewContainer
	lNewProc
	lNewThread
	lNewEndpoint
	lKillProc
	lBatch
	lEncodeSQE
	lPopCQE
	lServe
	lAbstract
	lPredicate
	lSnapshot
	lBoot
	lClusterNew
	lClusterStep
	lTotalWF
	lWF0      // verify.WFChecks() entries follow in order
	numLayers = lWF0 + numWF
)

// numWF is the length of verify.WFChecks(); main checks it at start-up.
const numWF = 8

// wfNames mirrors verify.WFChecks() names (checked at start-up), so the
// per-layer metric list is static.
var wfNames = [numWF]string{
	"container_tree_wf", "processes_wf", "threads_wf", "endpoints_wf",
	"scheduler_wf", "cpu_reservation_wf", "memory_wf", "quota_wf",
}

var layerNames = func() [numLayers]string {
	n := [numLayers]string{
		lCall: "kernel.call", lRecv: "kernel.recv", lReplyRecv: "kernel.reply_recv",
		lMmap: "kernel.mmap", lMunmap: "kernel.munmap",
		lNewContainer: "kernel.new_container", lNewProc: "kernel.new_proc",
		lNewThread: "kernel.new_thread", lNewEndpoint: "kernel.new_endpoint",
		lKillProc: "kernel.kill_proc", lBatch: "kernel.batch",
		lEncodeSQE: "shmring.encode_sqe", lPopCQE: "shmring.pop_cqe",
		lServe: "apps.kvstore.serve", lAbstract: "spec.abstract",
		lPredicate: "spec.predicate", lSnapshot: "mem.snapshot",
		lBoot: "kernel.boot", lClusterNew: "cluster.new", lClusterStep: "cluster.step",
		lTotalWF: "verify.total_wf",
	}
	for i, w := range wfNames {
		n[lWF0+layer(i)] = "verify.wf." + w
	}
	return n
}()

// kernelLayer says whether a boundary is a kernel syscall, whose core
// clock delta feeds kernel.sim_cycles.
func kernelLayer(l layer) bool { return l <= lBatch }

// hasErrno says whether a boundary reports .errno_count.
// Violations of a single WF check count on verify.total_wf.
func hasErrno(l layer) bool { return kernelLayer(l) || l == lPredicate || l == lTotalWF }

// layerAgg accumulates one boundary across a run.
type layerAgg struct {
	count, errnos  uint64
	busyNs, selfNs int64
	cycles         uint64
}

// span is one retained record for the written-out trace.
type span struct {
	layer      layer
	req        uint64
	start, end int64 // ns on the tracer's clock
	parent     int32 // index into spans, -1 for none
}

type frame struct {
	layer  layer
	start  int64
	child  int64 // ns covered by direct children
	cyc    uint64
	clk    *hw.Clock
	retain int32
}

// tracer records a span around every call the benchmark makes into a
// layer. A nil *tracer is the untraced run: every method is a no-op.
// Spans nest strictly (the simulation is single-goroutine), so a
// span's self time is its duration minus its direct children's.
type tracer struct {
	clock func() int64 // ns; monotonic
	req   uint64
	stack []frame
	agg   [numLayers]layerAgg
	spans []span // the first maxSpans, written out at the end
}

// maxSpans bounds the retained spans; aggregates cover every span.
const maxSpans = 200_000

func newTracer() *tracer {
	base := time.Now()
	return &tracer{
		clock: func() int64 { return int64(time.Since(base)) },
		stack: make([]frame, 0, 8),
		spans: make([]span, 0, 1024),
	}
}

func (t *tracer) now() int64 { return t.clock() }

// request sets the id that the next spans share.
func (t *tracer) request(id uint64) {
	if t != nil {
		t.req = id
	}
}

// begin opens a span; clk, when non-nil, is the simulated clock whose
// delta the span attributes to the layer.
func (t *tracer) begin(l layer, clk *hw.Clock) {
	if t == nil {
		return
	}
	f := frame{layer: l, clk: clk, retain: -1}
	if clk != nil {
		f.cyc = clk.Cycles()
	}
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		if len(t.stack) > 0 {
			parent = t.stack[len(t.stack)-1].retain
		}
		f.retain = int32(len(t.spans))
		t.spans = append(t.spans, span{layer: l, req: t.req, parent: parent})
	}
	f.start = t.now()
	if f.retain >= 0 {
		t.spans[f.retain].start = f.start
	}
	t.stack = append(t.stack, f)
}

// end closes the innermost span; failed marks it in .errno_count.
func (t *tracer) end(failed bool) {
	if t == nil {
		return
	}
	now := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := now - f.start
	a := &t.agg[f.layer]
	a.count++
	a.busyNs += dur
	a.selfNs += dur - f.child
	if failed {
		a.errnos++
	}
	if f.clk != nil {
		a.cycles += f.clk.Cycles() - f.cyc
	}
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].child += dur
	}
	if f.retain >= 0 {
		t.spans[f.retain].end = now
	}
}

// endSys closes a kernel span: EWOULDBLOCK is a syscall blocking as
// asked, not a failure.
func (t *tracer) endSys(r kernel.Ret) {
	t.end(r.Errno != kernel.OK && r.Errno != kernel.EWOULDBLOCK)
}

// writeChrome writes the retained spans as Chrome trace-event JSON
// (loadable in Perfetto), one complete event per span with its request
// id and parent span index as args.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "{\"traceEvents\":[\n")
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"parent\":%d}}%s\n",
			layerNames[s.layer], float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.req, s.parent, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
