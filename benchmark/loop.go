package main

import (
	"sync"
	"time"
)

// loopResult is what a closed loop of several clients produced.
type loopResult[T any] struct {
	// perClient holds each client's successful operations in order.
	perClient [][]T
	// marks[c][k] is how far into the phase client c was when it
	// started the k-th fifth of its operations; marks[c][5] is its end.
	marks     [][6]time.Duration
	wall      time.Duration
	truncated bool
}

// closedLoop runs operations 0..n-1 on each of `clients` goroutines,
// each sending its next operation only after the previous one
// completed. op reports whether the operation succeeded; its sample is
// kept only then. Past the deadline every client stops at its next
// operation boundary.
func closedLoop[T any](deadline time.Time, clients, n int, op func(client, i int) (T, bool)) loopResult[T] {
	res := loopResult[T]{perClient: make([][]T, clients), marks: make([][6]time.Duration, clients)}
	bounds := fifths(n)
	var wg sync.WaitGroup
	var cut sync.Once
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			samples := make([]T, 0, n)
			fifth := 0
			for i := 0; i < n; i++ {
				for fifth < 5 && i == bounds[fifth] {
					res.marks[c][fifth] = time.Since(start)
					fifth++
				}
				if i%64 == 0 && time.Now().After(deadline) {
					cut.Do(func() { res.truncated = true })
					break
				}
				if s, ok := op(c, i); ok {
					samples = append(samples, s)
				}
			}
			for ; fifth <= 5; fifth++ {
				res.marks[c][fifth] = time.Since(start)
			}
			res.perClient[c] = samples
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// interleaved returns the samples in issue order, clients alternating.
func (r loopResult[T]) interleaved() []T {
	var out []T
	for i := 0; ; i++ {
		any := false
		for _, samples := range r.perClient {
			if i < len(samples) {
				out = append(out, samples[i])
				any = true
			}
		}
		if !any {
			return out
		}
	}
}

// fifthRates returns, per fifth of the phase, the summed weight of the
// operations the clients completed in it per second of their wall time:
// the phase's throughput, five times over.
func (r loopResult[T]) fifthRates(weight func(T) float64) []float64 {
	var rates []float64
	for k := 0; k < 5; k++ {
		var rate float64
		for c, samples := range r.perClient {
			bounds := fifths(len(samples))
			var w float64
			for _, s := range samples[bounds[k]:bounds[k+1]] {
				w += weight(s)
			}
			if d := (r.marks[c][k+1] - r.marks[c][k]).Seconds(); d > 0 {
				rate += w / d
			}
		}
		if rate > 0 {
			rates = append(rates, rate)
		}
	}
	return rates
}
