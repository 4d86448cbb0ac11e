package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/server"
)

// tracedEvery is how often a traced serve-hot client also sends its
// request through ServeHTTP in-process: often enough for a median,
// rarely enough not to halve the request rate.
const tracedEvery = 16

// expectedPage is what the oracle says one scripted request returns.
type expectedPage struct {
	offset, total, count int
	fp                   uint64
}

// responseHeader is the part of a QueryResponse the traced run decodes
// in full: the numbers the server already reports about itself.
type responseHeader struct {
	Path   string          `json:"path"`
	Stages core.StageTimer `json:"stages"`
	WallNS int64           `json:"wall_ns"`
}

// decodeHeader decodes the fields of a QueryResponse that precede its
// pairs, without parsing the page itself.
func decodeHeader(body []byte) (responseHeader, error) {
	var h responseHeader
	at := bytes.Index(body, []byte(`,"pairs":`))
	if at < 0 {
		return h, fmt.Errorf("malformed query response: %.80s", body)
	}
	return h, json.Unmarshal(append(body[:at:at], '}'), &h)
}

// stageSamples records the response's own stage breakdown.
func stageSamples(h responseHeader, clientWall time.Duration, layers *layerSet) {
	st := h.Stages
	layers.sample("server.queue_ns", float64(st.QueueNS))
	layers.sample("server.coalesce_wait_ns", float64(st.CoalesceWaitNS))
	layers.sample("server.plan_ns", float64(st.PlanNS))
	layers.sample("server.closure_build_ns", float64(st.ClosureBuildNS))
	layers.sample("server.join_ns", float64(st.JoinNS))
	layers.sample("server.seal_ns", float64(st.SealNS))
	layers.sample("server.page_ns", float64(st.PageNS))
	layers.sample("server.other_ns", float64(st.OtherNS))
	layers.sample("server.overhead_ns", float64(h.WallNS)-ns(st.Sum()))
	layers.sample("server.stage_sum_ratio", ns(st.Sum())/float64(max(h.WallNS, 1)))
	layers.sample("server.transport_ns", ns(clientWall)-float64(h.WallNS))
	switch h.Path {
	case "fast_path":
		layers.count("server.path_fast_path", 1)
	case "fast_lane":
		layers.count("server.path_fast_lane", 1)
	case "windowed":
		layers.count("server.path_windowed", 1)
	}
}

// hotPhase has each client run requests [from, from+n) of its script
// and returns the client-side latencies in ms.
func hotPhase(cfg config, in *inputs, s *served, expect [][]expectedPage, from, n int, chk *checker, tr *tracer, layers *layerSet) loopResult[float64] {
	clients := make([]*client, len(in.requests))
	for c := range clients {
		clients[c] = newClient(s.ts.URL)
		defer clients[c].close()
	}
	return closedLoop(cfg.deadline(), len(clients), n, func(c, i int) (float64, bool) {
		cl := clients[c]
		r, want := in.requests[c][from+i], expect[c][from+i]
		body := cl.queryBody(in.pool[r.query].String(), pageLimit, want.offset)
		t0 := time.Now()
		d, err := cl.post("/query", body)
		if err == nil {
			var p page
			if p, err = scanPage(cl.resp.Bytes()); err == nil && (p.total != want.total || p.count != want.count || p.fp != want.fp) {
				err = fmt.Errorf("%s offset %d: total %d count %d fp %x, oracle has total %d count %d fp %x",
					in.pool[r.query], want.offset, p.total, p.count, p.fp, want.total, want.count, want.fp)
			}
		}
		chk.op(err)
		if err != nil {
			return 0, false
		}
		if tr != nil {
			req := tr.request()
			tr.record(0, req, "http.query", t0, d)
			h, err := decodeHeader(cl.resp.Bytes())
			if err != nil {
				chk.violation(fmt.Errorf("decoding response header: %w", err))
				return ms(d), true
			}
			stageSamples(h, d, layers)
			layers.sample("server.response_bytes", float64(cl.resp.Len()))
			if i%tracedEvery == 0 {
				t1 := time.Now()
				if hd, err := s.inProcess("/query", body); err == nil {
					tr.record(0, req, "server.handler", t1, hd)
					layers.sample("server.handler_ns", ns(hd))
				}
			}
		}
		return ms(d), true
	})
}

// runServeHot is the bypass workload: after warm-up every request is a
// result-memo hit, so the engine does nothing and the request is
// decode, CachedResult, Relation.Page, JSON encode and transport.
func runServeHot(cfg config, res *result, chk *checker, tr *tracer, layers *layerSet) error {
	replica, err := paperInputs(min(gateScale, cfg.scale), cfg.seed)
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
	// Set-up: graph, engine, server boot, then the warm-up unit: every
	// pool query once, which seals and memoises the 12 results.
	inst, setupS, setupTimes, err := medianSetup(cfg, func() (instance, error) {
		in, err := paperInputs(cfg.scale, cfg.seed)
		if err != nil {
			return instance{}, err
		}
		s := serve(core.New(in.graph, core.Options{}), server.Options{})
		cl := newClient(s.ts.URL)
		defer cl.close()
		for _, q := range in.pool {
			if _, err := cl.post("/query", cl.queryBody(q.String(), pageLimit, 0)); err != nil {
				s.close()
				return instance{}, fmt.Errorf("warm-up query %s: %w", q, err)
			}
		}
		return instance{in, s}, nil
	}, func(i instance) { i.s.close() })
	if err != nil {
		return err
	}
	in, s := inst.in, inst.s
	defer s.close()
	in.addHotScript(cfg.seed, clientCount(), cfg.work.requests)
	res.FixedWork = map[string]int{"clients": clientCount(), "requests_per_client": cfg.work.requests, "pool": len(in.pool), "limit": pageLimit}

	// Oracle work, off the clock: resolve every scripted request to its
	// offset and the page it must return, then let the relations go.
	orc, err := newOracle(in.graph, in.pool)
	if err != nil {
		return err
	}
	expect := make([][]expectedPage, len(in.requests))
	for c, script := range in.requests {
		expect[c] = make([]expectedPage, len(script))
		for i, r := range script {
			total := orc.rels[r.query].Len()
			e := expectedPage{total: total, offset: int(r.frac * float64(max(total-pageLimit, 0)))}
			e.fp, e.count = orc.pageFingerprint(r.query, e.offset)
			expect[c][i] = e
		}
	}
	orc = nil

	if cfg.trace {
		half := cfg.work.halved().requests
		untraced := hotPhase(cfg, in, s, expect, 0, half, chk, nil, layers)
		traced := hotPhase(cfg, in, s, expect, half, half, chk, tr, layers)
		res.WallS, res.Truncated = traced.wall.Seconds(), traced.truncated
		layers.set("bench.trace_overhead_share", traced.wall.Seconds()/untraced.wall.Seconds()-1)
		engineCounters(s.engine, layers)
		return replayLayers(in, []core.Strategy{core.RTCSharing}, cfg.seed, tr, layers, chk)
	}

	phase := hotPhase(cfg, in, s, expect, 0, cfg.work.requests, chk, nil, layers)
	lat := phase.interleaved()
	if len(lat) == 0 {
		return errTruncated
	}
	res.WallS, res.Truncated = phase.wall.Seconds(), phase.truncated
	checkCrossEpoch(s.engine, chk)
	res.setSetup(setupS, setupTimes)
	res.setLatency(lat, 99, "query_ms_p50", "query_ms_p99")
	res.Metrics["throughput_per_s"] = metricValue{Value: float64(len(lat)) / phase.wall.Seconds(), Unit: "1/s", N: len(lat), Alias: "queries_per_s",
		Parts: phase.fifthRates(func(float64) float64 { return 1 })}
	// The harness's scripts and samples are not the program's memory.
	expect, in.requests, lat, phase = nil, nil, nil, loopResult[float64]{}
	res.Metrics["resident_mb"] = metricValue{Value: residentMB(s), Unit: "MB"}
	return nil
}
