package main

import (
	"math"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{100000, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{199, 90, true},
		{100, 90, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
		{5, 0, false},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeReportsTailWithTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.TailAt != "p99" || s.Tail != 990 {
		t.Fatalf("summarize = %+v; want n=1000 p50=500 p99=990", s)
	}
	beyond := 0
	for _, x := range xs {
		if x > s.Tail {
			beyond++
		}
	}
	if beyond < minBeyond {
		t.Fatalf("%d samples beyond the tail, want >= %d", beyond, minBeyond)
	}

	few := summarize([]float64{3, 1, 2})
	if few.TailAt != "p50" || few.Tail != 2 || few.P50 != 2 {
		t.Fatalf("summarize(3 samples) = %+v; want the median 2 as both p50 and tail", few)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	for _, c := range []struct{ got, want float64 }{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Fatalf("quartiles = %v %v %v; want 2.75 5.5 8.25", q1, q2, q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}
