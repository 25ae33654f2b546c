package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so every helper must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins the exclusive method: the values are those
// of Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(4), 1.25, 3.75},
		{seq(10), 2.75, 8.25},
		{[]float64{5, 1}, 0, 6}, // the exclusive method extrapolates on two samples

		{[]float64{0.3, 0.1, 0.2}, 0.1, 0.3},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

// TestPercentileNeedsTenBeyond checks the refusal rule: a p95 needs 200
// samples and a p90 needs 100, so at least ten lie beyond either.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{199, 0.95, 0, false},
		{200, 0.95, 190, true},
		{99, 0.90, 0, false},
		{100, 0.90, 90, true},
		{20, 0.50, 10, true},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, %v, want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}
