package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a timing may report as its tail, highest
// first. A distribution reports the highest one that leaves at least
// minBeyond samples above it.
var tailLadder = []float64{99.9, 99.5, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// dist is a timing reported the way the benchmark reports every timing: the
// median, the highest percentile with at least minBeyond samples beyond it,
// and the sample count.
type dist struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// percentile returns the nearest-rank p-th percentile of sorted (ascending)
// values, or 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n > 0
// samples; n - rankOf(p, n) samples lie beyond it. The small epsilon keeps
// binary rounding of p/100 from pushing an exact rank one higher.
func rankOf(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(rank, 1), n)
}

// tailPercentile returns the highest ladder percentile that leaves at least
// minBeyond of n samples beyond it, or 0 when even the lowest rung does not.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n > 0 && n-rankOf(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// summarize sorts a copy of xs and reports it as a dist.
func summarize(xs []float64) dist {
	s := sortedCopy(xs)
	d := dist{N: len(s), P50: percentile(s, 50)}
	if p := tailPercentile(len(s)); p > 0 {
		d.TailPct, d.Tail = p, percentile(s, p)
	}
	return d
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the 50th percentile of xs.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// mean is the arithmetic mean of xs, or 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
