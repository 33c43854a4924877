package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.9, 3.7}, {0.25, 1.75},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The expected cut points are what Python's
// statistics.quantiles(values, n=4) returns for the same values.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{0.9, 1.0, 1.1, 1.3}, 0.925, 1.05, 1.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSpreadIsIQROverMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	same := []float64{3, 3, 3, 3}
	if got := spread(same); got != 0 {
		t.Errorf("spread of equal values = %v", got)
	}
}

func TestBlockRates(t *testing.T) {
	var ends []time.Duration
	// Completions every 10 ms up to 100 ms, then every 20 ms, out of order.
	for i := 10; i >= 0; i-- {
		ends = append(ends, time.Duration(i)*10*time.Millisecond)
	}
	for i := 1; i <= 10; i++ {
		ends = append(ends, 100*time.Millisecond+time.Duration(i)*20*time.Millisecond)
	}
	ends = append(ends, 310*time.Millisecond) // a partial block, dropped
	got := blockRates(ends, 5)
	want := []float64{100, 100, 50, 50}
	if len(got) != len(want) {
		t.Fatalf("blockRates = %v, want %v", got, want)
	}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Errorf("block %d: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestHTTPOverheadIsLatencyOutsideTheJob(t *testing.T) {
	sub := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	fin := sub.Add(3 * time.Millisecond)
	if got := httpOverhead(5*time.Millisecond, sub, fin); got != 2*time.Millisecond {
		t.Errorf("overhead = %v, want 2ms", got)
	}
	if got := ms(1500 * time.Microsecond); got != 1.5 {
		t.Errorf("ms = %v", got)
	}
	if got := us(1500 * time.Nanosecond); got != 1.5 {
		t.Errorf("us = %v", got)
	}
}
