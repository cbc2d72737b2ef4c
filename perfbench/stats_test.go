package main

import (
	"math"
	"testing"
)

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{20, 21, 50, 99, 100, 160, 480, 999, 1000, 5000} {
		q := tailQuantile(n)
		beyond := n - int(math.Ceil(q*float64(n)))
		if beyond < minBeyond {
			t.Errorf("n=%d: q=%.4f leaves %d samples beyond, want >= %d", n, q, beyond, minBeyond)
		}
		if q > maxTail {
			t.Errorf("n=%d: q=%.4f above the p99 cap", n, q)
		}
	}
	if q := tailQuantile(1000); q != 0.99 {
		t.Errorf("1000 samples should support p99, got %.4f", q)
	}
	if q := tailQuantile(999); q >= 0.99 {
		t.Errorf("999 samples must not claim p99, got %.4f", q)
	}
	if q := tailQuantile(100); q != 0.9 {
		t.Errorf("100 samples should give p90, got %.4f", q)
	}
	if q := tailQuantile(28); math.Abs(q-(1-10.0/28)) > 1e-12 {
		t.Errorf("28 samples should give p64.3, got %.4f", q)
	}
	if q := tailQuantile(19); q != 0.5 {
		t.Errorf("19 samples support no tail above the median, got %.4f", q)
	}
}

func TestQuantileCountsMissingAsInfinite(t *testing.T) {
	xs := make([]float64, 0, 100)
	for i := 1; i <= 95; i++ {
		xs = append(xs, float64(i))
	}
	for i := 0; i < 5; i++ {
		xs = append(xs, math.Inf(1))
	}
	s := sortedCopy(xs)
	if got := quantile(s, 0.5); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
	if got := quantile(s, 0.96); !math.IsInf(got, 1) {
		t.Errorf("p96 with 5%% missing = %v, want +Inf", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
