package server

import (
	"math/bits"
	"sync/atomic"
	"time"

	"rtcshare/internal/core"
)

// The latency histograms are log-bucketed: bucket 0 holds observations
// up to histMinNS nanoseconds, every further bucket doubles the upper
// bound. 4µs × 2^27 ≈ 9 minutes — far beyond any request timeout — so
// the fixed bucket count never saturates in practice, and one
// histogram is a flat array of atomics: observation is a shift, an
// index and two atomic adds, cheap enough for every request.
const (
	histMinNS   = 4096 // bucket 0 upper bound: ~4µs
	histMinLog2 = 12   // log2(histMinNS)
	histBuckets = 28
)

// histogram is a concurrent log-bucketed latency histogram. The zero
// value is ready to use. Snapshots are not atomic across buckets —
// an observation racing a snapshot may be missed or half-counted —
// which is the standard monitoring trade-off; tests read quiesced
// histograms.
type histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sumNS  atomic.Int64
	maxNS  atomic.Int64
}

// bucketIndex maps a nanosecond observation to its bucket.
func bucketIndex(ns int64) int {
	if ns <= histMinNS {
		return 0
	}
	i := bits.Len64(uint64(ns-1)) - histMinLog2
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketBounds returns the [lo, hi] nanosecond range of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, histMinNS
	}
	return histMinNS << (i - 1), histMinNS << i
}

// observe records one latency.
func (h *histogram) observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// quantile estimates the q-quantile (0 ≤ q ≤ 1) in nanoseconds from
// the bucket counts, interpolating linearly within the bucket the rank
// falls into. The interpolation fraction is clamped at 1: when the
// rank falls inside the bucket's last observation, the raw
// (rank − cum + 1)/n reaches up to (n+1)/n and would place the
// estimate past the bucket's upper bound — a latency the counts
// cannot support, unmasked by the observed-max clamp whenever a
// higher bucket holds the true maximum. The estimate never leaves
// [lo, min(hi, max)].
func (h *histogram) quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total-1)
	var cum int64
	for i := 0; i < histBuckets; i++ {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) > rank {
			lo, hi := bucketBounds(i)
			within := (rank - float64(cum) + 1) / float64(n)
			if within > 1 {
				within = 1
			}
			v := float64(lo) + within*float64(hi-lo)
			if max := float64(h.maxNS.Load()); v > max {
				v = max
			}
			return v
		}
		cum += n
	}
	return float64(h.maxNS.Load())
}

// HistogramStats is the JSON rendering of one log-bucketed latency
// histogram: observation count, mean, interpolated p50/p90/p99 and the
// exact maximum, all in milliseconds. The field set is part of the
// /metrics wire format.
type HistogramStats struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

const nsPerMS = float64(time.Millisecond)

// snapshot renders the histogram for /metrics.
func (h *histogram) snapshot() HistogramStats {
	n := h.count.Load()
	s := HistogramStats{Count: n}
	if n == 0 {
		return s
	}
	s.MeanMS = float64(h.sumNS.Load()) / float64(n) / nsPerMS
	s.P50MS = h.quantile(0.50) / nsPerMS
	s.P90MS = h.quantile(0.90) / nsPerMS
	s.P99MS = h.quantile(0.99) / nsPerMS
	s.MaxMS = float64(h.maxNS.Load()) / nsPerMS
	return s
}

// resultPath tags how a /query request was served; it splits the
// latency histograms and is echoed in QueryResponse.Path.
type resultPath int

const (
	// pathFastPath was answered from the epoch-tagged result memo.
	pathFastPath resultPath = iota
	// pathDirect was evaluated on the request's own goroutine.
	pathDirect
	// pathAsk answered an existence probe (/query?ask=1) through the
	// engine's short-circuiting ASK evaluator.
	pathAsk
	// pathStreamed delivered the result incrementally (/query/stream or
	// /query/sse) through an epoch-pinned pull stream.
	pathStreamed
	// pathWitness reconstructed a label-path witness (/query?witness=1).
	pathWitness

	numPaths
)

func (p resultPath) String() string {
	switch p {
	case pathFastPath:
		return "fast_path"
	case pathDirect:
		return "direct"
	case pathAsk:
		return "ask"
	case pathStreamed:
		return "streamed"
	case pathWitness:
		return "witness"
	}
	return "unknown"
}

// StageHistograms is the per-stage latency section of /metrics: one
// histogram per StageTimer stage. A stage histogram only counts
// requests in which the stage actually ran (non-zero time), so each
// describes "when this stage happens, how long does it take" rather
// than being diluted by the paths that skip it.
type StageHistograms struct {
	Queue        HistogramStats `json:"queue"`
	Plan         HistogramStats `json:"plan"`
	ClosureBuild HistogramStats `json:"closure_build"`
	Join         HistogramStats `json:"join"`
	Seal         HistogramStats `json:"seal"`
	Page         HistogramStats `json:"page"`
	Other        HistogramStats `json:"other"`
}

// latencyRecorder aggregates per-request latencies server-side: one
// overall histogram, one per serving path, and one per pipeline stage.
type latencyRecorder struct {
	overall histogram
	paths   [numPaths]histogram

	queue        histogram
	plan         histogram
	closureBuild histogram
	join         histogram
	seal         histogram
	page         histogram
	other        histogram

	// encode is, per serving path, the time a response spends after its
	// wall_ns stamp: encoding the pairs and handing them to net/http
	// (for a stream, summed over its pairs records and its terminal
	// record, whose write carries the pairs still pending). firstChunk is a
	// stream's handler entry to its first pairs record flushed.
	encode     [numPaths]histogram
	firstChunk histogram
}

// observe records one finished request: wall time into the overall and
// per-path histograms, each non-zero stage into its stage histogram.
func (l *latencyRecorder) observe(path resultPath, wall time.Duration, st *core.StageTimer) {
	l.overall.observe(wall)
	l.paths[path].observe(wall)
	for _, s := range []struct {
		ns int64
		h  *histogram
	}{
		{st.QueueNS, &l.queue},
		{st.PlanNS, &l.plan},
		{st.ClosureBuildNS, &l.closureBuild},
		{st.JoinNS, &l.join},
		{st.SealNS, &l.seal},
		{st.PageNS, &l.page},
		{st.OtherNS, &l.other},
	} {
		if s.ns > 0 {
			s.h.observe(time.Duration(s.ns))
		}
	}
}

// encodes renders the encode histograms of the paths that carry pairs,
// keyed by path name.
func (l *latencyRecorder) encodes() map[string]HistogramStats {
	out := make(map[string]HistogramStats)
	for _, p := range []resultPath{pathFastPath, pathDirect, pathStreamed} {
		out[p.String()] = l.encode[p].snapshot()
	}
	return out
}

// stages renders the per-stage histograms.
func (l *latencyRecorder) stages() StageHistograms {
	return StageHistograms{
		Queue:        l.queue.snapshot(),
		Plan:         l.plan.snapshot(),
		ClosureBuild: l.closureBuild.snapshot(),
		Join:         l.join.snapshot(),
		Seal:         l.seal.snapshot(),
		Page:         l.page.snapshot(),
		Other:        l.other.snapshot(),
	}
}
