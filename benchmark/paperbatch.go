package main

import (
	"fmt"
	"runtime"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/pairs"
)

// paperStrategies are the three methods of the paper's Experiment 1,
// in core.Strategy order; the first is the engine's default.
var paperStrategies = []core.Strategy{core.RTCSharing, core.FullSharing, core.NoSharing}

// leg is one timed answer of all three query sets under one strategy:
// a fresh engine per set, EvaluateRel per query.
type leg struct {
	wall time.Duration
	// stats and cache sum the engines' accounting over the sets.
	stats core.Stats
	cache core.CacheCounters
}

// runLeg answers every set once under st. Only engine construction and
// the EvaluateRel calls are on the clock; fingerprinting the sealed
// results against want (nil on the leg that establishes it) is not. It
// also returns the leg's engines, the results memoised inside them.
func runLeg(in *inputs, st core.Strategy, want []uint64, chk *checker, tr *tracer) (l leg, engines []*core.Engine, got []uint64, err error) {
	got = make([]uint64, 0, len(in.pool))
	qi := 0
	for si, set := range in.sets {
		req := tr.request()
		rels := make([]*pairs.Relation, len(set))
		t0 := time.Now()
		e := core.New(in.graph, core.Options{Strategy: st})
		var children []int
		for i, q := range set {
			tq := time.Now()
			rel, err := e.EvaluateRel(q)
			if err != nil {
				return l, nil, nil, fmt.Errorf("%v: %s: %w", st, q, err)
			}
			children = append(children, tr.record(0, req, "core.EvaluateRel", tq, time.Since(tq)))
			rels[i] = rel
		}
		d := time.Since(t0)
		l.wall += d
		tr.reparent(tr.record(0, req, fmt.Sprintf("paper-batch.set%d.%s", si+1, strategies[st]), t0, d), children...)
		engines = append(engines, e)
		l.stats.Add(e.Stats())
		c := e.Cache().Counters()
		l.cache.RelHits += c.RelHits
		l.cache.RelMisses += c.RelMisses
		l.cache.CrossEpochHits += c.CrossEpochHits
		for _, rel := range rels {
			fp := relationFingerprint(rel)
			got = append(got, fp)
			var err error
			if want != nil && want[qi] != fp {
				err = fmt.Errorf("%s under %v: result fingerprint %x differs from RTCSharing's %x", in.pool[qi], st, fp, want[qi])
			}
			chk.op(err)
			qi++
		}
		if x := c.CrossEpochHits; x != 0 {
			chk.violation(fmt.Errorf("%v: %d cross-epoch cache hits", st, x))
		}
	}
	return l, engines, got, nil
}

// legSchedule spreads each strategy's legs evenly over the run, so a
// drift in machine speed touches all three alike. Every round ends on
// its RTCSharing leg, so the last leg of a run is the default
// engine's and its engines are what resident_mb weighs.
func legSchedule(counts [3]int) []core.Strategy {
	rounds := max(counts[0], counts[1], counts[2])
	var order []core.Strategy
	for r := 0; r < rounds; r++ {
		for i := len(paperStrategies) - 1; i >= 0; i-- {
			if (r+1)*counts[i]/rounds > r*counts[i]/rounds {
				order = append(order, paperStrategies[i])
			}
		}
	}
	return order
}

// paperPhase runs one measured phase and returns the legs grouped by
// strategy, plus the engines of the last leg.
func paperPhase(cfg config, in *inputs, counts [3]int, want []uint64, chk *checker, tr *tracer) (byStrategy [3][]leg, engines []*core.Engine, wall time.Duration, truncated bool, err error) {
	deadline := cfg.deadline()
	start := time.Now()
	for _, st := range legSchedule(counts) {
		if time.Now().After(deadline) {
			truncated = true
			break
		}
		// Each leg allocates a few hundred MB of results; drop the
		// previous leg's and start from a collected heap, so one leg's
		// garbage is not the next one's GC.
		engines = nil
		runtime.GC()
		var l leg
		if l, engines, _, err = runLeg(in, st, want, chk, tr); err != nil {
			return byStrategy, nil, 0, false, err
		}
		byStrategy[st] = append(byStrategy[st], l)
	}
	return byStrategy, engines, time.Since(start), truncated, nil
}

func legMillis(legs []leg) []float64 {
	out := make([]float64, len(legs))
	for i, l := range legs {
		out[i] = ms(l.wall)
	}
	return out
}

// runPaperBatch is the library-path workload: the paper's Experiment 1
// on RMAT_3 (Figs. 10-11). No server, no store.
func runPaperBatch(cfg config, res *result, chk *checker, tr *tracer, layers *layerSet) error {
	replica, err := paperInputs(min(gateScale, cfg.scale), cfg.seed)
	if err != nil {
		return err
	}
	if err := gateAgainstReference(replica, paperStrategies, 0); err != nil {
		return err
	}

	type instance struct {
		in   *inputs
		want []uint64
	}
	// Set-up: generate the graph and the pool, then one discarded
	// RTCSharing leg as the warm-up unit. That leg's fingerprints are
	// what every later leg, under every strategy, must reproduce.
	inst, setupS, setupTimes, err := medianSetup(cfg, func() (instance, error) {
		in, err := paperInputs(cfg.scale, cfg.seed)
		if err != nil {
			return instance{}, err
		}
		_, _, want, err := runLeg(in, core.RTCSharing, nil, &checker{}, nil)
		return instance{in, want}, err
	}, func(instance) {})
	if err != nil {
		return err
	}
	in := inst.in
	res.FixedWork = map[string]int{"legs_rtc": cfg.work.legs[0], "legs_full": cfg.work.legs[1], "legs_none": cfg.work.legs[2], "rpqs_per_leg": len(in.pool)}

	if cfg.trace {
		half := cfg.work.halved().legs
		_, _, untraced, _, err := paperPhase(cfg, in, half, inst.want, chk, nil)
		if err != nil {
			return err
		}
		legs, _, traced, truncated, err := paperPhase(cfg, in, half, inst.want, chk, tr)
		if err != nil {
			return err
		}
		res.WallS, res.Truncated = traced.Seconds(), truncated
		layers.set("bench.trace_overhead_share", traced.Seconds()/untraced.Seconds()-1)
		var queries, hits, misses float64
		for _, l := range legs[core.RTCSharing] {
			queries += float64(l.stats.Queries)
			hits += float64(l.stats.CacheHits)
			misses += float64(l.stats.CacheMisses)
			layers.count("core.rel_hits", float64(l.cache.RelHits))
			layers.count("core.rel_misses", float64(l.cache.RelMisses))
			layers.count("core.cross_epoch_hits", float64(l.cache.CrossEpochHits))
		}
		layers.count("core.cache_hits", hits)
		layers.count("core.cache_misses", misses)
		layers.set("core.sharing_factor", queries/max(misses, 1))
		return replayLayers(in, paperStrategies, cfg.seed, tr, layers, chk)
	}

	legs, engines, wall, truncated, err := paperPhase(cfg, in, cfg.work.legs, inst.want, chk, nil)
	if err != nil {
		return err
	}
	res.WallS, res.Truncated = wall.Seconds(), truncated
	for _, byStrategy := range legs {
		if len(byStrategy) == 0 {
			return errTruncated
		}
	}
	rtcMS, fullMS, noneMS := legMillis(legs[0]), legMillis(legs[1]), legMillis(legs[2])
	perSecond := make([]float64, len(fullMS))
	for i, v := range fullMS {
		perSecond[i] = float64(len(in.pool)) * 1000 / v
	}
	res.setSetup(setupS, setupTimes)
	res.Metrics["latency_ms_p50"] = metricValue{Value: median(rtcMS), Unit: "ms", N: len(rtcMS), Parts: rtcMS, Alias: "response_ms_rtc"}
	res.Metrics["latency_ms_tail"] = metricValue{Value: median(noneMS), Unit: "ms", N: len(noneMS), Parts: noneMS, Alias: "response_ms_none"}
	res.Metrics["throughput_per_s"] = metricValue{Value: median(perSecond), Unit: "1/s", N: len(perSecond), Parts: perSecond, Alias: "rpqs_per_s_full"}
	res.Metrics["resident_mb"] = metricValue{Value: residentMB(engines), Unit: "MB"}

	// Fig. 10's ratios are printed with their bases but not gated: a
	// ratio punishes a change that speeds up code all three share.
	res.Detail["response_ms_full"] = metricValue{Value: median(fullMS), Unit: "ms", N: len(fullMS), Parts: fullMS}
	res.Detail["ratio_full_over_rtc"] = metricValue{Value: median(fullMS) / median(rtcMS), Unit: "ratio", Alias: fmt.Sprintf("%.1f ms / %.1f ms", median(fullMS), median(rtcMS))}
	res.Detail["ratio_none_over_rtc"] = metricValue{Value: median(noneMS) / median(rtcMS), Unit: "ratio", Alias: fmt.Sprintf("%.1f ms / %.1f ms", median(noneMS), median(rtcMS))}
	return nil
}
