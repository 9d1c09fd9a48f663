package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(q=%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if in[0] != 4 {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio over zero = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	span := interval{10, 20}
	for _, tc := range []struct {
		name     string
		children []interval
		want     float64
	}{
		{"no children", nil, 10},
		{"one child", []interval{{12, 15}}, 7},
		{"disjoint", []interval{{11, 12}, {14, 17}}, 6},
		{"overlapping hedge", []interval{{12, 16}, {14, 18}}, 4},
		{"nested", []interval{{12, 18}, {13, 14}}, 4},
		{"clipped to span", []interval{{5, 12}, {19, 25}}, 7},
		{"outside span", []interval{{1, 2}, {30, 31}}, 10},
		{"covers span", []interval{{0, 30}}, 0},
	} {
		if got := selfTime(span, tc.children); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}
