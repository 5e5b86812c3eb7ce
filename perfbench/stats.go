package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles the benchmark may report as a tail,
// highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it; ok is false when none has.
func tailPercentile(n int) (pct float64, ok bool) {
	for _, p := range tailLadder {
		if float64(n)*(100-p) >= 100*minBeyond {
			return p, true
		}
	}
	return 0, false
}

// quantile returns the q-quantile (0..1) of sorted xs by the nearest-rank
// rule; xs must be non-empty.
func quantile(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// summary is a latency sample's median and tail under the percentile rule.
type summary struct {
	N      int
	P50    float64
	Tail   float64
	TailAt string // "p99", "p95", ... or "p50" when no percentile qualifies
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: quantile(s, 0.5)}
	if p, ok := tailPercentile(len(s)); ok {
		out.Tail = quantile(s, p/100)
		out.TailAt = fmt.Sprintf("p%g", p)
	} else {
		// Too few samples to resolve a tail: the maximum of a handful of
		// samples would mostly measure the host, so report the median.
		out.Tail = out.P50
		out.TailAt = "p50"
	}
	return out
}

// median returns the median of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, median and Q3 with the exclusive method of
// Python's statistics.quantiles(xs, n=4), which is how the spread of a
// metric across runs is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		// statistics.quantiles, method="exclusive": m = n + 1.
		pos := float64(j*(n+1)) / 4
		k := int(math.Floor(pos))
		frac := pos - float64(k)
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + (s[k]-s[k-1])*frac
	}
	return at(1), at(2), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
