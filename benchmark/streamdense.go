package main

import (
	"bufio"
	"fmt"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/server"
)

// drainSample is one measured stream drain.
type drainSample struct {
	drained
	query int
}

// streamPhase has every client drain the pool round-robin, `drains`
// full drains each.
func streamPhase(cfg config, in *inputs, s *served, orc *oracle, drains int, chk *checker, tr *tracer, layers *layerSet) loopResult[drainSample] {
	type state struct {
		cl    *client
		lines *bufio.Reader
	}
	states := make([]state, clientCount())
	for c := range states {
		states[c] = state{newClient(s.ts.URL), bufio.NewReaderSize(nil, streamLineBuffer)}
		defer states[c].cl.close()
	}
	return closedLoop(cfg.deadline(), len(states), drains, func(c, i int) (drainSample, bool) {
		// Clients start at different pool positions so they do not
		// drain the same query in lockstep.
		qi := (i + c*len(in.pool)/len(states)) % len(in.pool)
		query := in.pool[qi].String()
		req := tr.request()
		t0 := time.Now()
		d, err := states[c].cl.drain(query, states[c].lines)
		if err == nil && (d.pairs != orc.rels[qi].Len() || d.fp != orc.fps[qi]) {
			err = fmt.Errorf("stream of %s: %d pairs fp %x, oracle has %d pairs fp %x", query, d.pairs, d.fp, orc.rels[qi].Len(), orc.fps[qi])
		}
		chk.op(err)
		if err != nil {
			return drainSample{}, false
		}
		if tr != nil {
			id := tr.record(0, req, "http.query_stream", t0, d.wall)
			tr.reparent(id, tr.record(0, req, "http.first_chunk", t0, d.firstPair))
			layers.sample("server.stream_first_chunk_ns", ns(d.firstPair))
			layers.sample("server.stream_chunks", float64(d.chunks))
			layers.sample("server.response_bytes", float64(d.bytes))
			layers.sample("server.bytes_per_pair", float64(d.bytes)/float64(max(d.pairs, 1)))
		}
		return drainSample{d, qi}, true
	})
}

// runStreamDense is the output-bound workload: full NDJSON drains of
// half-million-pair results over HTTP.
func runStreamDense(cfg config, res *result, chk *checker, tr *tracer, layers *layerSet) error {
	replica, err := denseInputs(min(gateScale, cfg.scale-1), cfg.seed)
	if err != nil {
		return err
	}
	if err := gateAgainstReference(replica, []core.Strategy{core.RTCSharing}, 0); err != nil {
		return err
	}

	type instance struct {
		in *inputs
		s  *served
	}
	// Set-up: graph, engine, server boot, then the warm-up unit: one
	// drain of every pool query, which builds and caches every shared
	// structure the measured drains will reuse.
	inst, setupS, setupTimes, err := medianSetup(cfg, func() (instance, error) {
		in, err := denseInputs(cfg.scale-1, cfg.seed)
		if err != nil {
			return instance{}, err
		}
		s := serve(core.New(in.graph, core.Options{}), server.Options{})
		cl := newClient(s.ts.URL)
		defer cl.close()
		lines := bufio.NewReaderSize(nil, streamLineBuffer)
		for _, q := range in.pool {
			if _, err := cl.drain(q.String(), lines); err != nil {
				s.close()
				return instance{}, fmt.Errorf("warm-up drain of %s: %w", q, err)
			}
		}
		return instance{in, s}, nil
	}, func(i instance) { i.s.close() })
	if err != nil {
		return err
	}
	in, s := inst.in, inst.s
	defer s.close()
	orc, err := newOracle(in.graph, in.pool)
	if err != nil {
		return err
	}
	res.FixedWork = map[string]int{"clients": clientCount(), "drains_per_client": cfg.work.drains, "pool": len(in.pool)}

	if cfg.trace {
		half := cfg.work.halved().drains
		untraced := streamPhase(cfg, in, s, orc, half, chk, nil, layers)
		traced := streamPhase(cfg, in, s, orc, half, chk, tr, layers)
		res.WallS, res.Truncated = traced.wall.Seconds(), traced.truncated
		layers.set("bench.trace_overhead_share", traced.wall.Seconds()/untraced.wall.Seconds()-1)
		// The same drains through ServeHTTP with no socket: what is
		// left of the client-side wall is transport and client parsing.
		cl := newClient("")
		handler := map[int]time.Duration{}
		for qi, q := range in.pool {
			req := tr.request()
			t0 := time.Now()
			d, err := s.inProcess("/query/stream", cl.queryBody(q.String(), 0, 0))
			if err != nil {
				return err
			}
			tr.record(0, req, "server.handler", t0, d)
			layers.sample("server.handler_ns", ns(d))
			handler[qi] = d
		}
		for _, smp := range traced.interleaved() {
			layers.sample("server.transport_ns", ns(smp.wall-handler[smp.query]))
		}
		engineCounters(s.engine, layers)
		return replayLayers(in, []core.Strategy{core.RTCSharing}, cfg.seed, tr, layers, chk)
	}

	phase := streamPhase(cfg, in, s, orc, cfg.work.drains, chk, nil, layers)
	samples := phase.interleaved()
	if len(samples) == 0 {
		return errTruncated
	}
	res.WallS, res.Truncated = phase.wall.Seconds(), phase.truncated
	checkCrossEpoch(s.engine, chk)
	orc = nil // the oracle's relations must not count as resident
	first := make([]float64, len(samples))
	walls := make([]float64, len(samples))
	var pairs float64
	for i, smp := range samples {
		first[i] = ms(smp.firstPair)
		walls[i] = ms(smp.wall)
		pairs += float64(smp.pairs)
	}
	rate := pairs / phase.wall.Seconds()
	res.setSetup(setupS, setupTimes)
	res.setLatency(first, 95, "ttfp_ms_p50", "ttfp_ms_p95")
	res.Metrics["throughput_per_s"] = metricValue{Value: rate, Unit: "1/s", N: len(samples), Alias: "stream_pairs_per_s",
		Parts: phase.fifthRates(func(s drainSample) float64 { return float64(s.pairs) })}
	res.Metrics["resident_mb"] = metricValue{Value: residentMB(s), Unit: "MB"}
	res.Detail["stream_mpairs_per_s"] = metricValue{Value: rate / 1e6, Unit: "Mpairs/s"}
	res.Detail["drain_ms_p50"] = metricValue{Value: median(walls), Unit: "ms", N: len(walls)}
	return nil
}

// engineCounters reads the served engine's own accounting into the
// core.* count metrics.
func engineCounters(e *core.Engine, layers *layerSet) {
	st := e.Stats()
	c := e.Cache().Counters()
	layers.count("core.cache_hits", float64(st.CacheHits))
	layers.count("core.cache_misses", float64(st.CacheMisses))
	layers.count("core.rel_hits", float64(c.RelHits))
	layers.count("core.rel_misses", float64(c.RelMisses))
	layers.count("core.cross_epoch_hits", float64(c.CrossEpochHits))
	layers.set("core.sharing_factor", float64(st.Queries)/float64(max(st.CacheMisses, 1)))
}

// checkCrossEpoch fails the run if the engine's cache ever served a
// value across graph epochs.
func checkCrossEpoch(e *core.Engine, chk *checker) {
	if x := e.Cache().Counters().CrossEpochHits; x != 0 {
		chk.violation(fmt.Errorf("%d cross-epoch cache hits", x))
	}
}
