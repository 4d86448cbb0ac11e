package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// fullScale is log2 of the RMAT_3 vertex count the three paper-graph
// workloads run at; stream-dense's RMAT_5 has half as many vertices.
// The smoke test shrinks it; nothing else may.
const fullScale = 11

// gateScale is log2 of the vertex count of the replica on which every
// answer is compared pair for pair with eval.Reference before timing.
const gateScale = 7

// work is the fixed amount of work one run does. Every count is a
// function of -seconds alone, so two runs of one seed issue the same
// operations and every counter repeats exactly.
type work struct {
	// legs is how often paper-batch answers all three sets under each
	// strategy (rtc, full, none). RTC legs are the cheapest and the
	// gated median, so they get the most repetitions; NoSharing legs
	// take 3 s each and vary least.
	legs [3]int
	// drains is stream-dense's full stream drains per client.
	drains int
	// requests is serve-hot's page requests per client.
	requests int
	// rounds is serve-churn's update+requery rounds.
	rounds int
	// setups is how often set-up is repeated; setup_s is the median.
	setups int
}

// workFor sizes the fixed work so the measured phase takes about
// `seconds` on the 2-CPU sandbox the rates below were calibrated on.
func workFor(seconds int) work {
	s := float64(seconds)
	atLeast := func(x float64, least int) int {
		if n := int(x + 0.5); n > least {
			return n
		}
		return least
	}
	return work{
		legs:     [3]int{atLeast(s*0.53, 2), atLeast(s*0.27, 1), atLeast(s*0.14, 1)},
		drains:   atLeast(s*9, 5),
		requests: atLeast(s*6500, 100),
		rounds:   atLeast(s*1.05, 2),
		setups:   3,
	}
}

// halved returns the work of one half of a traced run, which measures
// the same operations once with the tracer off and once with it on.
func (w work) halved() work {
	half := func(n int) int { return max(n/2, 1) }
	return work{
		legs:     [3]int{half(w.legs[0]), half(w.legs[1]), half(w.legs[2])},
		drains:   half(w.drains),
		requests: half(w.requests),
		rounds:   half(w.rounds),
		setups:   w.setups,
	}
}

// config is one workload run.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// scale is log2 of the RMAT_3 vertex count (fullScale outside tests).
	scale  int
	work   work
	outDir string
}

// deadline is the wall-clock cap of one measured phase: past it a
// workload stops at the next unit boundary and reports itself
// truncated, so a slow machine shortens the run but cannot blow the
// 180 s the contract allows a run. A hung operation is a different
// matter: it hits opTimeout and is counted as failed.
func (cfg config) deadline() time.Time {
	return time.Now().Add(time.Duration(cfg.seconds) * 2 * time.Second)
}

// opTimeout bounds any single HTTP operation.
const opTimeout = 30 * time.Second

// oracle is the serial reference the HTTP workloads are checked
// against: a plain library engine over the same graph, fed the same
// update script, one call at a time between timed operations.
// The library path is itself tied to eval.Reference by the replica
// gate, so a served answer that matches the oracle at the same epoch
// is right.
type oracle struct {
	engine *core.Engine
	pool   []rpq.Expr
	rels   []*pairs.Relation
	fps    []uint64
}

func newOracle(g *graph.Graph, pool []rpq.Expr) (*oracle, error) {
	o := &oracle{engine: core.New(g, core.Options{}), pool: pool}
	return o, o.refresh()
}

// refresh re-evaluates the pool at the oracle engine's current epoch.
// Nothing is being timed while the oracle works, so it spreads the pool
// over every CPU; serve-churn spends as long here as in its rounds.
func (o *oracle) refresh() error {
	rels, _, err := o.engine.EvaluateBatchParallelRel(o.pool, runtime.NumCPU())
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	o.rels = rels
	o.fps = make([]uint64, len(rels))
	for i, rel := range rels {
		o.fps[i] = relationFingerprint(rel)
	}
	return nil
}

// pageFingerprint is the fingerprint and size of the page the server
// must return for pool query i at the given offset.
func (o *oracle) pageFingerprint(i, offset int) (uint64, int) {
	page := o.rels[i].Page(offset, pageLimit)
	var fp uint64
	for _, p := range page {
		fp = foldPair(fp, p.Src, p.Dst)
	}
	return fp, len(page)
}

// relationFingerprint folds a sealed relation in its (src, dst) order.
func relationFingerprint(rel *pairs.Relation) uint64 {
	var fp uint64
	rel.Each(func(src, dst graph.VID) bool {
		fp = foldPair(fp, src, dst)
		return true
	})
	return fp
}

// gateAgainstReference is the correctness gate that precedes timing: on
// a small replica of the workload's instance (same generator, same
// seed, same pool) every query's answer under every strategy the
// workload uses must equal eval.Reference pair for pair; with rounds >
// 0 the first update rounds are applied too and the answers re-checked
// on a graph rebuilt from scratch.
func gateAgainstReference(in *inputs, strats []core.Strategy, rounds int) error {
	check := func(g *graph.Graph, engines []*core.Engine) error {
		for _, q := range in.pool {
			want := eval.Reference(g, q)
			for _, e := range engines {
				got, err := e.EvaluateRel(q)
				if err != nil {
					return fmt.Errorf("gate: %s: %w", q, err)
				}
				if !got.EqualSet(want) {
					return fmt.Errorf("gate: %s under %v: %d pairs, reference has %d", q, e.Options().Strategy, got.Len(), want.Len())
				}
			}
		}
		return nil
	}
	engines := make([]*core.Engine, len(strats))
	for i, st := range strats {
		engines[i] = core.New(in.graph, core.Options{Strategy: st})
	}
	if err := check(in.graph, engines); err != nil {
		return err
	}
	mirror := graph.MutableFromGraph(in.graph)
	for r := 0; r < rounds && r < len(in.rounds); r++ {
		for _, u := range in.rounds[r] {
			var err error
			if u.Op == core.OpInsertEdge {
				_, err = mirror.InsertEdge(u.Src, u.Label, u.Dst)
			} else {
				_, err = mirror.DeleteEdge(u.Src, u.Label, u.Dst)
			}
			if err != nil {
				return fmt.Errorf("gate: mirror update: %w", err)
			}
		}
		for _, e := range engines {
			if _, err := e.ApplyUpdates(in.rounds[r]); err != nil {
				return fmt.Errorf("gate: round %d: %w", r+1, err)
			}
		}
		if err := check(mirror.Freeze(), engines); err != nil {
			return fmt.Errorf("after update round %d: %w", r+1, err)
		}
	}
	return nil
}

// residentMB is HeapAlloc after a forced collection. The caller keeps
// the engine, cache and server referenced across the call (and has
// dropped its own oracle), so the value is what the shared structures
// and memoised results cost to keep.
func residentMB(keep ...any) float64 {
	// sync.Pool contents (join scratch, evaluators, HTTP buffers)
	// survive one collection in the victim cache; the second drops them.
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	runtime.KeepAlive(keep)
	return float64(m.HeapAlloc) / (1 << 20)
}

// allocDelta reports bytes and objects allocated while f ran.
func allocDelta(f func()) (bytes, objects float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc), float64(after.Mallocs - before.Mallocs)
}

// medianSetup runs setup cfg.work.setups times, tearing down all but
// the last instance, and returns the last instance with the median
// set-up time in seconds.
func medianSetup[T any](cfg config, setup func() (T, error), teardown func(T)) (T, float64, []float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < cfg.work.setups; i++ {
		if i > 0 {
			teardown(last)
		}
		runtime.GC()
		t0 := time.Now()
		inst, err := setup()
		if err != nil {
			var zero T
			return zero, 0, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = inst
	}
	return last, median(times), times, nil
}

// runWorkload dispatches one run and fills in the parts of the result
// every workload shares.
func runWorkload(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	res := &result{
		Header:   newHeader(),
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Seconds:  cfg.seconds,
		Trace:    cfg.trace,
		Metrics:  map[string]metricValue{},
		Detail:   map[string]metricValue{},
	}
	var tr *tracer
	layers := newLayerSet()
	if cfg.trace {
		tr = newTracer()
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{Unit: d.unit}
		}
	}
	chk := &checker{}
	var err error
	switch cfg.workload {
	case "paper-batch":
		err = runPaperBatch(cfg, res, chk, tr, layers)
	case "stream-dense":
		err = runStreamDense(cfg, res, chk, tr, layers)
	case "serve-hot":
		err = runServeHot(cfg, res, chk, tr, layers)
	case "serve-churn":
		err = runServeChurn(cfg, res, chk, tr, layers)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		layers.fill(res)
		for name, self := range tr.selfTimes() {
			res.Detail["self_ns:"+name] = metricValue{Value: float64(self), Unit: "ns"}
		}
		if err := tr.write(cfg.outDir, cfg.workload); err != nil {
			return nil, err
		}
	}
	if err := chk.finish(res); err != nil {
		return nil, err
	}
	return res, res.write(cfg.outDir)
}

var errTruncated = errors.New("wall-clock cap reached")
