package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder is the set of tail percentiles a latency report steps down
// through: the highest one with at least minBeyond samples above it is
// the tail the benchmark reports.
var tailLadder = []float64{99, 95, 90}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported as a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted: the
// smallest sample with at least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(sorted)) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond is the number of samples strictly past the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)/100))
}

// tailPercentile returns the highest percentile of the ladder that has at
// least minBeyond of n samples beyond it, or 0 when none has.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match a check made with it.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", ld)
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), nil
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return math.Inf(1), nil
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// worsening is how much worse the median of b is than the median of a,
// as a share of a's median; negative when b is better. better is "lower"
// or "higher".
func worsening(a, b []float64, better string) float64 {
	ma, mb := median(a), median(b)
	d := (mb - ma) / math.Abs(ma)
	if better == "higher" {
		d = -d
	}
	return d
}

// repeatResult is the verdict of comparing two sets of runs of one metric.
type repeatResult struct {
	SpreadA, SpreadB float64 // interquartile range / median of each set
	Worsening        float64 // median of B against median of A
	OK               bool
	Why              string
}

// repeatCheck decides whether two sets of runs of the same code agree for
// one metric: each set's spread must stay within bound (unless
// spreadExempt, as for set-up time), and B's median may not be worse than
// A's by more than bound.
func repeatCheck(a, b []float64, bound float64, better string, spreadExempt bool) (repeatResult, error) {
	var r repeatResult
	var err error
	if r.SpreadA, err = spread(a); err != nil {
		return r, err
	}
	if r.SpreadB, err = spread(b); err != nil {
		return r, err
	}
	r.Worsening = worsening(a, b, better)
	r.OK = true
	switch {
	case !spreadExempt && r.SpreadA > bound:
		r.OK, r.Why = false, fmt.Sprintf("first set spread %.4f > bound %.4f", r.SpreadA, bound)
	case !spreadExempt && r.SpreadB > bound:
		r.OK, r.Why = false, fmt.Sprintf("second set spread %.4f > bound %.4f", r.SpreadB, bound)
	case r.Worsening > bound:
		r.OK, r.Why = false, fmt.Sprintf("second median worse by %.4f > bound %.4f", r.Worsening, bound)
	}
	return r, nil
}
