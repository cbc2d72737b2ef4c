package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is one or two unlucky requests, not a
// property of the system.
const minBeyond = 10

// maxTail caps the reported tail at p99.
const maxTail = 0.99

// decisionTail caps the tail of whole-utterance decision latencies at
// p90. On a shared host, slow spells of a second or two land among the
// last few percent of an open loop's few hundred decisions: they moved
// its p95 by a quarter of the median from run to run, its p90 by less.
const decisionTail = 0.90

// tailQuantile returns the highest quantile, capped at maxTail, that
// leaves at least minBeyond of n samples beyond it. Below 2*minBeyond
// samples no tail above the median qualifies, and the median is
// returned.
func tailQuantile(n int) float64 {
	if n < 2*minBeyond {
		return 0.5
	}
	return min(1-float64(minBeyond)/float64(n), maxTail)
}

// quantile returns the q-quantile of sorted xs by the nearest-rank
// rule: the smallest sample with at least q·n samples at or below it.
// Missing responses are passed as +Inf and sort last, so they count
// against every percentile they reach.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the 0.5-quantile of xs (any order).
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quartiles returns the first quartile, median and third quartile of xs
// with the same method as Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method), so the spreads printed here match the ones
// the steadiness check computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		// Exclusive method: position j*(n+1)/4, 1-based, interpolated
		// and clamped to the sample range.
		m := float64(n + 1)
		pos := float64(j) * m / 4
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		switch {
		case lo < 1:
			return s[0]
		case lo >= n:
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}
