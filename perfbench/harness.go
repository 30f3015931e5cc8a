package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"atmosphere/internal/hw"
)

// workload is one named benchmark input. A fresh value runs each pass.
type workload interface {
	// setup boots the machines and builds the state the rounds use.
	setup() error
	// rounds is the fixed number of rounds in a pass.
	rounds() int
	// round runs round i. An error is a harness or protocol breakdown
	// that ends the run; a wrong output is counted by the workload and
	// reported from finish.
	round(i int) error
	// finish checks the pass's outputs and fills in its results.
	finish(p *pass) error
}

// workloads maps each name to its constructor; tr is nil when the pass
// is untraced.
var workloads = map[string]func(seed uint64, tr *tracer) workload{
	"kv-rpc":   newKVRPC,
	"kv-batch": newKVBatch,
	"checked":  newChecked,
	"cluster":  newCluster,
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// sloCycles is the simulated latency limit: 2.5x the cluster's
// unloaded 4-hop round trip of 80,000 cycles.
const sloCycles = 200_000

// pass is what one pass of a workload reports.
type pass struct {
	ops               uint64 // completed ops: served requests, checked transitions, sent cluster requests
	attempted, failed uint64
	withinSLO         uint64 // attempted ops that succeeded within sloCycles

	simOps         uint64 // ops over the simulated interval simCycles
	simCycles      uint64
	latP50, latP99 uint64 // simulated latency quantiles, cycles

	clocks    []uint64 // final per-core (per-machine) clocks
	traceHash uint64   // cluster only; depends on whether dist tracing is on

	// sim holds deterministic per-layer values available in every
	// pass (they feed the digest); traced holds values that only a
	// traced pass can produce.
	sim, traced map[string]float64
}

// digest folds every simulated result of a pass (FNV-1a). withHash
// adds the cluster trace hash, which dist tracing legitimately changes
// (its header lengthens every frame), so cross-mode comparison leaves
// it out.
func (p *pass) digest(withHash bool) uint64 {
	h := uint64(14695981039346656037)
	mix := func(w uint64) {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	for _, w := range []uint64{p.ops, p.attempted, p.failed, p.withinSLO, p.simOps, p.simCycles, p.latP50, p.latP99} {
		mix(w)
	}
	for _, c := range p.clocks {
		mix(c)
	}
	keys := make([]string, 0, len(p.sim))
	for k := range p.sim {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, b := range []byte(k) {
			mix(uint64(b))
		}
		mix(math.Float64bits(p.sim[k]))
	}
	if withHash {
		mix(p.traceHash)
	}
	return h
}

// simMops is simulated ops per simulated second at the 2.2 GHz clock.
func (p *pass) simMops() float64 {
	if p.simCycles == 0 {
		return 0
	}
	return float64(p.simOps) * hw.ClockHz / float64(p.simCycles) / 1e6
}

// passHost is a pass's host-side measurements.
type passHost struct {
	setupS, measuredS float64
	ops               uint64
	mallocs, bytes    uint64
	heapBytes         uint64
	p50Ns, p99Ns      float64 // round-time quantiles (untraced passes)
}

// result accumulates a run.
type result struct {
	name  string
	seed  uint64
	plain []passHost // untraced passes: the end-to-end numbers
	trace []passHost // traced passes
	hist  logHist    // the current pass's round durations

	first       *pass // first untraced pass
	firstTraced *pass
	attempted   uint64
	failed      uint64
	mismatch    []string
	rounds      int
	tracer      *tracer
}

// Pass-count floors and the hard stop that keeps a run inside its
// time limit on a slow host.
const (
	minPlainPasses  = 3
	minTracedPasses = 2
	hardStop        = 150 * time.Second
)

// measure runs passes until the budget is spent. A traced run
// alternates untraced and traced passes so that both see the same
// host conditions; the ratio of their throughputs is the tracing cost.
func measure(name string, seed uint64, seconds float64, traced bool) (*result, error) {
	budget := time.Duration(seconds * float64(time.Second))
	res := &result{name: name, seed: seed}
	if traced {
		res.tracer = newTracer()
	}
	start := time.Now()
	for i := 0; ; i++ {
		var tr *tracer
		if traced && i%2 == 1 {
			tr = res.tracer
		}
		t0 := time.Now()
		if err := res.runPass(tr); err != nil {
			return nil, err
		}
		elapsed, last := time.Since(start), time.Since(t0)
		enough := len(res.plain) >= minPlainPasses
		if traced {
			enough = len(res.plain) >= minTracedPasses && len(res.trace) >= minTracedPasses
		}
		if enough && (elapsed+last > budget || elapsed > hardStop) {
			break
		}
	}
	return res, nil
}

func (res *result) runPass(tr *tracer) error {
	w := workloads[res.name](res.seed, tr)
	runtime.GC()
	t0 := time.Now()
	err := w.setup()
	if err != nil {
		return fmt.Errorf("%s setup: %w", res.name, err)
	}
	setup := time.Since(t0)

	n := w.rounds()
	res.rounds = n
	res.hist = logHist{}
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	begin := time.Now()
	prev := begin
	for i := 0; i < n; i++ {
		tr.request(uint64(i))
		if err := w.round(i); err != nil {
			return fmt.Errorf("%s round %d: %w", res.name, i, err)
		}
		now := time.Now()
		if tr == nil {
			res.hist.record(int64(now.Sub(prev)))
		}
		prev = now
	}
	measured := prev.Sub(begin)
	runtime.ReadMemStats(&m1)

	p := &pass{sim: map[string]float64{}, traced: map[string]float64{}}
	if err = w.finish(p); err != nil {
		return fmt.Errorf("%s finish: %w", res.name, err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(w)

	h := passHost{
		setupS:    setup.Seconds(),
		measuredS: measured.Seconds(),
		ops:       p.ops,
		mallocs:   m1.Mallocs - m0.Mallocs,
		bytes:     m1.TotalAlloc - m0.TotalAlloc,
		heapBytes: m2.HeapAlloc,
	}
	res.attempted += p.attempted
	res.failed += p.failed
	if tr == nil {
		if h.p50Ns, err = res.hist.quantile(0.50); err != nil {
			return fmt.Errorf("%s host round p50: %w", res.name, err)
		}
		if h.p99Ns, err = res.hist.quantile(0.99); err != nil {
			return fmt.Errorf("%s host round p99: %w", res.name, err)
		}
		res.plain = append(res.plain, h)
		res.compare(&res.first, p, "untraced")
	} else {
		res.trace = append(res.trace, h)
		res.compare(&res.firstTraced, p, "traced")
	}
	if res.first != nil && res.firstTraced != nil && res.first.digest(false) != res.firstTraced.digest(false) {
		res.note("traced pass digest %#x differs from untraced %#x: the harness's spans changed simulated time",
			res.firstTraced.digest(false), res.first.digest(false))
	}
	return nil
}

// compare keeps the first pass of a mode and checks later ones
// against it: one seed must reproduce every simulated value.
func (res *result) compare(first **pass, p *pass, mode string) {
	if *first == nil {
		*first = p
		return
	}
	if a, b := (*first).digest(true), p.digest(true); a != b {
		res.note("%s pass digest %#x differs from the first pass's %#x", mode, b, a)
	}
}

func (res *result) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	for _, m := range res.mismatch {
		if m == msg {
			return
		}
	}
	res.mismatch = append(res.mismatch, msg)
}

func (res *result) correct() bool { return res.failed == 0 && len(res.mismatch) == 0 }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// medianOf applies f to each pass and takes the median.
func medianOf(ps []passHost, f func(passHost) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

func opsPerS(p passHost) float64 { return float64(p.ops) / p.measuredS }

// endToEnd computes every end-to-end metric from the untraced passes:
// host timings are medians over passes.
func (res *result) endToEnd() map[string]metric {
	var ops, mallocs, bytes uint64
	for _, p := range res.plain {
		ops += p.ops
		mallocs += p.mallocs
		bytes += p.bytes
	}
	f := res.first
	return map[string]metric{
		"setup_s":            {medianOf(res.plain, func(p passHost) float64 { return p.setupS }), "s"},
		"host_ops_per_s":     {medianOf(res.plain, opsPerS), "1/s"},
		"host_round_p50_us":  {medianOf(res.plain, func(p passHost) float64 { return p.p50Ns / 1e3 }), "us"},
		"host_round_p99_us":  {medianOf(res.plain, func(p passHost) float64 { return p.p99Ns / 1e3 }), "us"},
		"host_allocs_per_op": {float64(mallocs) / float64(ops), "allocs"},
		"host_bytes_per_op":  {float64(bytes) / float64(ops), "B"},
		"heap_mib":           {medianOf(res.plain, func(p passHost) float64 { return float64(p.heapBytes) / (1 << 20) }), "MiB"},
		"sim_mops":           {f.simMops(), "Mops/s"},
		"sim_lat_p50_cycles": {float64(f.latP50), "cycles"},
		"sim_lat_p99_cycles": {float64(f.latP99), "cycles"},
		"sim_slo_ok_ratio":   {float64(f.withinSLO) / float64(f.attempted), "ratio"},
		"success_ratio":      {1 - float64(res.failed)/float64(res.attempted), "ratio"},
	}
}

// perLayer computes every per-layer metric from the traced passes:
// span aggregates per pass (every pass does identical work, so counts
// are exact), the first traced pass's layer values, and the tracing
// overhead against the interleaved untraced passes.
func (res *result) perLayer() map[string]metric {
	m := map[string]float64{}
	n := float64(len(res.trace))
	for l := layer(0); l < numLayers; l++ {
		a := res.tracer.agg[l]
		name := layerNames[l]
		m[name+".count"] = float64(a.count) / n
		m[name+".busy_ms"] = float64(a.busyNs) / 1e6 / n
		m[name+".self_ms"] = float64(a.selfNs) / 1e6 / n
		m[name+".errno_count"] = float64(a.errnos) / n
		if kernelLayer(l) {
			m["kernel.sim_cycles"] += float64(a.cycles) / n
		}
	}
	m["apps.kvstore.sim_cycles"] = float64(res.tracer.agg[lServe].cycles) / n
	for _, src := range []map[string]float64{res.firstTraced.sim, res.firstTraced.traced} {
		for k, v := range src {
			m[k] = v
		}
	}
	m["trace.overhead_ratio"] = medianOf(res.plain, opsPerS) / medianOf(res.trace, opsPerS)
	out := map[string]metric{}
	for _, d := range perLayerMetrics() {
		out[d.name] = metric{m[d.name], d.unit}
	}
	return out
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (res *result) jsonLine(traced bool) (string, error) {
	m := res.endToEnd
	if traced {
		m = res.perLayer
	}
	b, err := json.Marshal(output{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: m()})
	return string(b), err
}

// writeText prints the human-readable report that precedes the result
// line: pass counts, sample counts, digests and every check failure.
func (res *result) writeText(w io.Writer) error {
	fmt.Fprintf(w, "workload %s seed %d: %d untraced + %d traced passes of %d rounds\n",
		res.name, res.seed, len(res.plain), len(res.trace), res.rounds)
	fmt.Fprintf(w, "host round samples %d per pass (p99 reported with %d beyond it); host timings are medians over %d untraced passes\n",
		res.hist.n, res.hist.n-rankFor(0.99, res.hist.n), len(res.plain))
	fmt.Fprintf(w, "sim digest %#x (cycle digest %#x)\n", res.first.digest(true), res.first.digest(false))
	fmt.Fprintf(w, "attempted %d failed %d error_rate %.6g\n",
		res.attempted, res.failed, float64(res.failed)/float64(res.attempted))
	for _, msg := range res.mismatch {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", msg)
	}
	_, err := fmt.Fprintln(w)
	return err
}
