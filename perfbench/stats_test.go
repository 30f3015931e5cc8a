package main

import (
	"math"
	"testing"

	"atmosphere/internal/obs"
)

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		q    float64
		n    uint64
		want bool
	}{
		{0.99, 0, false},
		{0.99, 999, false}, // rank 990: 9 beyond
		{0.99, 1000, true}, // rank 990: 10 beyond
		{0.99, 1001, true},
		{0.50, 20, true}, // rank 10: 10 beyond
		{0.50, 19, false},
		{0.999, 10000, true},
		{0.999, 9999, false},
	}
	for _, c := range cases {
		if got := reportable(c.q, c.n); got != c.want {
			t.Errorf("reportable(%g, %d) = %v, want %v", c.q, c.n, got, c.want)
		}
	}
}

func TestExactQuantile(t *testing.T) {
	xs := make([]uint64, 1000)
	for i := range xs {
		xs[i] = uint64(1000 - i) // reversed: the quantile must sort
	}
	if v, err := exactQuantile(xs, 0.99); err != nil || v != 990 {
		t.Errorf("p99 = %d, %v; want 990 (ceil rank)", v, err)
	}
	if v, err := exactQuantile(xs, 0.50); err != nil || v != 500 {
		t.Errorf("p50 = %d, %v; want 500", v, err)
	}
	if _, err := exactQuantile(xs[:999], 0.99); err == nil {
		t.Error("p99 over 999 samples accepted")
	}
}

func TestLogHist(t *testing.T) {
	var h logHist
	for i := 1; i <= 10000; i++ {
		h.record(int64(i) * 100) // 100 ns .. 1 ms, uniform
	}
	if h.n != 10000 {
		t.Fatalf("count %d", h.n)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500_000}, {0.99, 990_000}} {
		got, err := h.quantile(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want)/c.want > histStep {
			t.Errorf("p%g = %.0f ns, want %.0f within %.1f%%", 100*c.q, got, c.want, 100*histStep)
		}
	}
	var small logHist
	for i := 0; i < 999; i++ {
		small.record(1000)
	}
	if _, err := small.quantile(0.99); err == nil {
		t.Error("p99 over 999 samples accepted")
	}
	// Out-of-range samples clamp into the end buckets.
	var edge logHist
	edge.record(1)
	edge.record(1 << 62)
	if edge.counts[0] != 1 || edge.counts[histBuckets-1] != 1 {
		t.Error("edge samples not clamped")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %g", m)
	}
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("even median %g", m)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

// TestCountAtMost: the histogram rank search counts exactly the
// samples at or below a bucket bound.
func TestCountAtMost(t *testing.T) {
	h := obs.NewHistogram([]uint64{100, 200, 300})
	for _, v := range []uint64{50, 100, 150, 199, 200, 250, 301, 900} {
		h.Observe(v)
	}
	for _, c := range []struct{ limit, want uint64 }{{100, 2}, {200, 5}, {300, 6}} {
		if got := countAtMost(h, c.limit); got != c.want {
			t.Errorf("countAtMost(%d) = %d, want %d", c.limit, got, c.want)
		}
	}
	if got := countAtMost(obs.NewHistogram([]uint64{100}), 100); got != 0 {
		t.Errorf("empty histogram: %d", got)
	}
}
