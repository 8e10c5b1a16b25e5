package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // extrapolates, as Python does
		{[]float64{0.97, 1.02, 0.99, 1.10, 1.01, 0.95, 1.00, 1.03, 0.98, 1.04}, 0.9775, 1.005, 1.0325},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		for _, c := range []struct{ got, want float64 }{{q1, tc.q1}, {q2, tc.q2}, {q3, tc.q3}} {
			if math.Abs(c.got-c.want) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
				break
			}
		}
	}
	if q1, _, _ := quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Error("quartiles of one sample is not NaN")
	}
}

func TestPercentileKeepsTenBeyond(t *testing.T) {
	xs := make([]float64, 456)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	p97 := percentile(xs, 0.97)
	if p97 != 442 {
		t.Fatalf("p97 of 0..455 = %v, want 442", p97)
	}
	beyond := 0
	for _, x := range xs {
		if x > p97 {
			beyond++
		}
	}
	if beyond < 10 {
		t.Errorf("%d samples beyond p97, want at least 10", beyond)
	}
	if got := percentile(xs, 0.5); got != 227 {
		t.Errorf("p50 = %v, want 227", got)
	}
	if got := percentile([]float64{7}, 0.97); got != 7 {
		t.Errorf("p97 of one sample = %v", got)
	}
}

func TestCovered(t *testing.T) {
	within := interval{0, 100}
	for _, tc := range []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{10, 20}, {30, 40}}, 20},
		{[]interval{{10, 30}, {20, 40}}, 30},   // overlapping
		{[]interval{{30, 40}, {10, 20}}, 20},   // unsorted
		{[]interval{{-10, 10}, {90, 120}}, 20}, // clipped
		{[]interval{{10, 20}, {20, 30}}, 20},   // touching
		{[]interval{{10, 50}, {20, 30}}, 40},   // nested
	} {
		if got := covered(within, tc.ivs); got != tc.want {
			t.Errorf("covered(%v) = %d, want %d", tc.ivs, got, tc.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "pass", Lane: 0, Parent: noParent, Start: 0, End: 100},
		{Name: "matrix", Lane: 0, Parent: 0, Start: 10, End: 90},
		{Name: "cell", Lane: 1, Parent: 1, Start: 20, End: 60}, // another lane: does not shorten matrix
		{Name: "get", Lane: 1, Parent: 2, Start: 25, End: 35},
		{Name: "run", Lane: 1, Parent: 2, Start: 40, End: 55},
		{Name: "exec", Lane: serverLane, Parent: 2, Start: 30, End: 50},
	}
	want := []int64{20, 80, 15, 10, 15, 20}
	self := selfTimes(spans)
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
	if err := checkAccounting(spans, self, 0); err != nil {
		t.Errorf("consistent tree rejected: %v", err)
	}

	// Two overlapping calls on one serial lane count time twice.
	bad := append([]span(nil), spans...)
	bad = append(bad, span{Name: "cell", Lane: 1, Parent: 1, Start: 50, End: 70})
	if err := checkAccounting(bad, selfTimes(bad), 0); err == nil {
		t.Error("overlapping spans on one lane accepted")
	}
	open := append([]span(nil), spans...)
	open[4].End = 0
	if err := checkAccounting(open, selfTimes(open), 0); err == nil {
		t.Error("unended span accepted")
	}
}
