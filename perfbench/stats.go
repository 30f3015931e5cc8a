package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie strictly beyond its rank.
const minBeyond = 10

// rankFor is the ceil rank (1-based) of quantile q over n samples.
func rankFor(q float64, n uint64) uint64 {
	r := uint64(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// reportable says whether quantile q of n samples leaves at least
// minBeyond samples beyond its rank.
func reportable(q float64, n uint64) bool {
	return n > 0 && n-rankFor(q, n) >= minBeyond
}

// exactQuantile is the ceil-rank quantile of integer samples (sorted in
// place), the rule obs.Histogram and dist.Attribution use, so simulated
// latencies are exact and deterministic. It fails when the percentile
// rule does not hold.
func exactQuantile(xs []uint64, q float64) (uint64, error) {
	n := uint64(len(xs))
	if !reportable(q, n) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples", 100*q, minBeyond, n)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[rankFor(q, n)-1], nil
}

// median of a float sample (copied, not reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// logHist records host durations in log-spaced buckets (growth factor
// 1+histStep) with a fixed footprint, so recording a pass's rounds
// neither allocates nor grows the live heap the pass measures.
// Quantiles interpolate linearly by rank inside the holding bucket;
// the relative error is below histStep.
type logHist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histStep    = 0.005
	histMinNs   = 50.0
	histBuckets = 4096 // 50 ns · 1.005^4096 ≈ 3.6e10 ns: ample headroom
)

var histLogStep = math.Log1p(histStep)

func histBucket(ns float64) int {
	if ns <= histMinNs {
		return 0
	}
	b := int(math.Log(ns/histMinNs)/histLogStep) + 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// histLower is bucket b's lower edge in ns.
func histLower(b int) float64 {
	if b == 0 {
		return 0
	}
	return histMinNs * math.Exp(float64(b-1)*histLogStep)
}

func (h *logHist) record(ns int64) {
	h.counts[histBucket(float64(ns))]++
	h.n++
}

// quantile returns the q-quantile in ns under the percentile rule.
func (h *logHist) quantile(q float64) (float64, error) {
	if !reportable(q, h.n) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples", 100*q, minBeyond, h.n)
	}
	rank := rankFor(q, h.n)
	var seen uint64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo, hi := histLower(b), histLower(b+1)
			frac := (float64(rank-seen) - 0.5) / float64(c)
			return lo + frac*(hi-lo), nil
		}
		seen += c
	}
	return 0, fmt.Errorf("histogram lost samples")
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName is the metric-name grammar: letters, digits, '_', '.' and
// '-', starting with a letter or digit, at most 64 characters.
func validName(s string) bool { return metricNameRE.MatchString(s) }
