package main

import (
	"sort"
	"time"
)

// sorted returns an ascending copy of values.
func sorted(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// values; 0 for an empty slice.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	values = sorted(values)
	rank := int(p/100*float64(len(values))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(values) {
		rank = len(values) - 1
	}
	return values[rank]
}

// median returns the middle value (mean of the two middle values for an
// even count) of values.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	values = sorted(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spreads -compare prints are the ones the acceptance procedure takes.
// It needs at least two values.
func quartiles(values []float64) (q1, q3 float64) {
	data := sorted(values)
	ld := len(data)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// fifths splits n operations into five consecutive index ranges; range
// k is [bounds[k], bounds[k+1]).
func fifths(n int) [6]int {
	var bounds [6]int
	for k := range bounds {
		bounds[k] = n * k / 5
	}
	return bounds
}

// perFifth applies f to each fifth of samples (in issue order) and
// returns the five values; fifths with no samples are skipped.
func perFifth(samples []float64, f func([]float64) float64) []float64 {
	bounds := fifths(len(samples))
	var out []float64
	for k := 0; k < 5; k++ {
		if part := samples[bounds[k]:bounds[k+1]]; len(part) > 0 {
			out = append(out, f(part))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

func sum(values []float64) float64 {
	var s float64
	for _, v := range values {
		s += v
	}
	return s
}
