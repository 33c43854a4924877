package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the numpy default), or NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + frac*(s[i+1]-s[i])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the three cut points of statistics.quantiles(xs, n=4)
// in Python's default "exclusive" method, so the spread figure here
// matches the one computed from the same values in Python. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the run-to-run spread of a metric: the distance between the
// first and third quartile as a share of the median.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// blockRates splits the completion offsets of a phase into consecutive
// blocks of n completions and returns each block's completions per
// second, measured from the completion before the block to its last
// one. A trailing partial block is dropped.
func blockRates(ends []time.Duration, n int) []float64 {
	s := append([]time.Duration(nil), ends...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var rates []float64
	for i := n; i < len(s); i += n {
		if d := s[i] - s[i-n]; d > 0 {
			rates = append(rates, float64(n)/d.Seconds())
		}
	}
	return rates
}

// httpOverhead is the part of a client-seen job latency that the job
// did not spend queued or running: submit, event streaming, result
// fetch and encoding on both sides.
func httpOverhead(latency time.Duration, submitted, finished time.Time) time.Duration {
	return latency - finished.Sub(submitted)
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durs converts durations to float values with the given conversion.
func durs(ds []time.Duration, conv func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = conv(d)
	}
	return out
}
