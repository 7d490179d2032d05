package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 99, 10},
		{ten, 100, 10},
		{ten, 0, 1},
		{[]float64{7}, 99, 7},
		{[]float64{1, 2}, 50, 1},
		{[]float64{1, 2}, 51, 2},
	} {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{99, 0},   // p90 leaves 9 beyond
		{100, 90}, // p90 leaves 10 beyond
		{199, 90}, // p95 leaves 9 beyond
		{200, 95},
		{999, 95}, // p99 leaves 9 beyond
		{1000, 99},
		{160000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && beyond(c.n, p) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%g has only %d beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5}, 5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 3}, [3]float64{0.5, 2.0, 3.5}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3.0, 4.5}},
		{[]float64{0.9, 1.0, 1.1, 1.05, 0.95, 1.2, 0.8, 1.0, 1.0, 1.02}, [3]float64{0.9375, 1.0, 1.0625}},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %g %g %g, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value should fail")
	}
	s, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil || !near(s, (8.25-2.75)/5.5) {
		t.Errorf("spread = %g, %v; want %g", s, err, (8.25-2.75)/5.5)
	}
}

func TestRepeatCheck(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 140, 70, 130, 80, 120, 100, 100, 90, 110}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		exempt bool
		ok     bool
	}{
		{"same code agrees", steady, shift(steady, 1.02), "lower", false, true},
		{"latency 15% worse", steady, shift(steady, 1.15), "lower", false, false},
		{"latency 15% better", steady, shift(steady, 0.85), "lower", false, true},
		{"throughput 15% lower", steady, shift(steady, 0.85), "higher", false, false},
		{"throughput 15% higher", steady, shift(steady, 1.15), "higher", false, true},
		{"first set too noisy", wide, steady, "lower", false, false},
		{"second set too noisy", steady, wide, "lower", false, false},
		{"set-up spread is exempt", wide, wide, "lower", true, true},
		{"set-up median still checked", steady, shift(steady, 1.2), "lower", true, false},
	} {
		r, err := repeatCheck(c.a, c.b, 0.10, c.better, c.exempt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if r.OK != c.ok {
			t.Errorf("%s: ok = %v (%s), want %v", c.name, r.OK, r.Why, c.ok)
		}
	}
}
