package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/plan"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/scc"
	"rtcshare/internal/tc"
)

// layerSet accumulates the per-layer numbers of a traced run: time
// samples become per-operation medians with their count, counts add up
// to totals, and a few values are set outright.
type layerSet struct {
	mu      sync.Mutex
	samples map[string][]float64
	totals  map[string]float64
	values  map[string]float64
}

func newLayerSet() *layerSet {
	return &layerSet{samples: map[string][]float64{}, totals: map[string]float64{}, values: map[string]float64{}}
}

// sample adds one per-operation observation of metric name.
func (l *layerSet) sample(name string, v float64) {
	l.mu.Lock()
	l.samples[name] = append(l.samples[name], v)
	l.mu.Unlock()
}

// sampled reports whether metric name has any observation yet.
func (l *layerSet) sampled(name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.samples[name]) > 0
}

// count adds to the total of a count-valued metric.
func (l *layerSet) count(name string, v float64) {
	l.mu.Lock()
	l.totals[name] += v
	l.mu.Unlock()
}

// maxOf raises a metric's value to v if v is larger.
func (l *layerSet) maxOf(name string, v float64) {
	l.mu.Lock()
	l.values[name] = max(l.values[name], v)
	l.mu.Unlock()
}

// set fixes a metric's value.
func (l *layerSet) set(name string, v float64) {
	l.mu.Lock()
	l.values[name] = v
	l.mu.Unlock()
}

// fill writes the accumulated numbers into res.Metrics, whose keys are
// already the per-layer catalogue; a name outside it is a harness bug.
func (l *layerSet) fill(res *result) {
	put := func(name string, v float64, n int) {
		m, ok := res.Metrics[name]
		if !ok {
			panic("benchmark: layer metric " + name + " is not in the catalogue")
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m.Value, m.N = v, n
		res.Metrics[name] = m
	}
	for name, s := range l.samples {
		put(name, median(s), len(s))
	}
	for name, v := range l.totals {
		put(name, v, 0)
	}
	for name, v := range l.values {
		put(name, v, 0)
	}
}

// replayedQueries caps how many queries (the first of each set) the
// layer replay walks through by hand.
const replayedQueries = 3

// replay measures each layer from outside. For the first query of each
// set it performs, by hand and through the layers' public functions,
// the steps the engine performs inside EvaluateRel for that query, on
// the same graph, wrapping each call in a span; then it runs the real
// EvaluateRel on a fresh engine and reports how much of it the steps
// do not account for. README.md lists the functions this pins.
type replay struct {
	in     *inputs
	tr     *tracer
	layers *layerSet
	chk    *checker
	seed   int64

	req      int
	children []int
}

// timed runs f inside a span named after the metric (minus "_ns") and
// records the duration as a sample of metric.
func (r *replay) timed(metric string, f func()) time.Duration {
	d := r.spanned(metric[:len(metric)-len("_ns")], f)
	r.layers.sample(metric, ns(d))
	return d
}

// spanned runs f inside a span without sampling any metric.
func (r *replay) spanned(name string, f func()) time.Duration {
	t0 := time.Now()
	f()
	d := time.Since(t0)
	r.children = append(r.children, r.tr.record(0, r.req, name, t0, d))
	return d
}

// root closes the spans recorded since the last root under one parent.
func (r *replay) root(name string, t0 time.Time) {
	id := r.tr.record(0, r.req, name, t0, time.Since(t0))
	r.tr.reparent(id, r.children...)
	r.children = r.children[:0]
}

// replayLayers runs the outside-in replay over the first query of each
// of in's sets, under each of strats (the first is the default
// strategy, whose numbers fill the unsuffixed core.* metrics).
func replayLayers(in *inputs, strats []core.Strategy, seed int64, tr *tracer, layers *layerSet, chk *checker) error {
	r := &replay{in: in, tr: tr, layers: layers, chk: chk, seed: seed}
	r.graphBuild()
	planner := plan.New(in.graph, plan.Config{})
	for i, set := range in.sets {
		if i == replayedQueries {
			break
		}
		if err := r.query(set[0], planner, strats); err != nil {
			return fmt.Errorf("replay of %s: %w", set[0], err)
		}
	}
	return nil
}

// graphBuild times graph.Builder.Build on the instance's own edges.
func (r *replay) graphBuild() {
	g := r.in.graph
	b := graph.NewBuilderWithDict(g.NumVertices(), g.Dict())
	g.Edges(func(e graph.Edge) bool {
		if err := b.AddEdgeLID(e.Src, e.Label, e.Dst); err != nil {
			panic(err) // edges of a built graph are in range by construction
		}
		return true
	})
	r.req = r.tr.request()
	t0 := time.Now()
	r.timed("graph.build_ns", func() { b.Build() })
	r.root("replay.graph", t0)
}

// clauseInputs are the strategy-independent inputs of one clause, built
// once and joined under every strategy.
type clauseInputs struct {
	unit rpq.BatchUnit
	preG *pairs.Relation
	gr   *graph.DiGraph
	// rel is set instead for a closure-free clause.
	rel *pairs.Relation
}

func (r *replay) query(q rpq.Expr, planner *plan.Planner, strats []core.Strategy) error {
	g := r.in.graph
	n := g.NumVertices()
	r.req = r.tr.request()
	// Every block of steps, like the real evaluation it is compared
	// with, starts from a collected heap: each allocates tens of MB,
	// and whose collection lands in whose span would otherwise decide
	// the comparison.
	runtime.GC()
	rootStart := time.Now()

	// Front end: parse is what the server pays per request; DNF,
	// decomposition and planning open every EvaluateRel.
	var parseErr error
	r.timed("rpq.parse_ns", func() { _, parseErr = rpq.Parse(q.String()) })
	if parseErr != nil {
		return parseErr
	}
	var (
		clauses []rpq.Expr
		units   []rpq.BatchUnit
		dnfErr  error
	)
	shared := r.timed("rpq.dnf_ns", func() {
		if clauses, dnfErr = rpq.ToDNF(q); dnfErr == nil {
			for _, c := range clauses {
				units = append(units, rpq.Decompose(c))
			}
		}
	})
	if dnfErr != nil {
		return dnfErr
	}
	r.layers.count("rpq.clauses", float64(len(clauses)))
	shared += r.timed("plan.plan_ns", func() { planner.Plan(q, clauses) })

	// Strategy-independent steps: Pre_G, R_G and the edge-level
	// reduction G_R (all "remainder" in the paper's split).
	seal := func(b *pairs.Builder) (rel *pairs.Relation) {
		shared += r.timed("pairs.seal_ns", func() { rel = b.Seal() })
		r.layers.count("pairs.seal_rows", float64(rel.Len()))
		return rel
	}
	traverse := func(metric string, e rpq.Expr) *pairs.Relation {
		b := pairs.NewBuilder(n)
		shared += r.timed(metric, func() { eval.New(g, e, eval.Options{}).AppendAll(b) })
		return seal(b)
	}
	inputsOf := make([]clauseInputs, len(units))
	for i, u := range units {
		if u.Type == rpq.ClosureNone {
			inputsOf[i] = clauseInputs{unit: u, rel: traverse("eval.pre_ns", clauses[i])}
			continue
		}
		ci := clauseInputs{unit: u, preG: traverse("eval.pre_ns", u.Pre)}
		rg := traverse("eval.rg_ns", u.R)
		r.layers.count("eval.rows_out", float64(rg.Len()))
		shared += r.timed("rtc.edge_reduce_ns", func() { ci.gr = rtc.EdgeReduceRel(n, rg) })
		inputsOf[i] = ci
	}
	r.root("replay.shared_steps", rootStart)

	var defaultResult *pairs.Relation
	for si, st := range strats {
		result, err := r.strategy(q, st, si == 0, shared, inputsOf)
		if err != nil {
			return err
		}
		if si == 0 {
			defaultResult = result
		}
	}
	r.sideMeasurements(q, inputsOf, defaultResult)
	return nil
}

// strategy finishes the replay under one strategy: closure structure,
// batch-unit join and clause union by hand, then the real cold (and
// warm) EvaluateRel on a fresh engine for comparison.
func (r *replay) strategy(q rpq.Expr, st core.Strategy, isDefault bool, shared time.Duration, inputsOf []clauseInputs) (*pairs.Relation, error) {
	g := r.in.graph
	suffix := "." + strategies[st]
	runtime.GC()
	t0 := time.Now()
	steps := shared
	// The joins borrow pooled scratch from an engine; a fresh one per
	// strategy keeps the hand-built path as cold as the real one.
	joiner := core.New(g, core.Options{Strategy: st})
	var (
		clauseRels []*pairs.Relation
		joinErr    error
	)
	for _, ci := range inputsOf {
		if ci.rel != nil {
			clauseRels = append(clauseRels, ci.rel)
			continue
		}
		var rel *pairs.Relation
		if st == core.RTCSharing {
			var structure *rtc.RTC
			steps += r.timed("rtc.compute_ns", func() { structure = rtc.Compute(ci.gr, 0) })
			steps += r.timed("core.join_ns", func() {
				rel, joinErr = joiner.EvalBatchUnit(ci.preG, structure, ci.unit.Type, ci.unit.Post)
			})
			if isDefault && joinErr == nil {
				r.layers.count("rtc.reduced_vertices", float64(structure.NumReducedVertices()))
				r.layers.count("rtc.shared_pairs", float64(structure.NumSharedPairs()))
				r.layers.sample("rtc.avg_scc_size", structure.Components().AverageSize())
				r.layers.sample("rtc.expand_ratio", float64(structure.ExpandedSize())/float64(max(structure.NumSharedPairs(), 1)))
				r.insertEdges(structure)
			}
		} else {
			var closure *tc.Closure
			steps += r.timed("tc.full_closure_ns", func() { closure = tc.BFS(ci.gr) })
			steps += r.spanned("core.join_full", func() {
				rel, joinErr = joiner.EvalBatchUnitFull(ci.preG, closure, ci.unit.Type, ci.unit.Post)
			})
		}
		if joinErr != nil {
			return nil, joinErr
		}
		if isDefault {
			r.layers.count("core.join_rows_out", float64(rel.Len()))
		}
		clauseRels = append(clauseRels, rel)
	}
	result := clauseRels[0]
	if len(clauseRels) > 1 {
		b := pairs.NewBuilder(g.NumVertices())
		steps += r.timed("pairs.seal_ns", func() {
			for _, rel := range clauseRels {
				b.AddRelation(rel)
			}
			result = b.Seal()
		})
	}
	r.root("replay.steps"+suffix, t0)

	// The real thing, cold then warm.
	runtime.GC()
	e := core.New(g, core.Options{Strategy: st})
	var (
		got     *pairs.Relation
		evalErr error
		cold    time.Duration
	)
	t0 = time.Now()
	bytes, objects := allocDelta(func() {
		t := time.Now()
		got, evalErr = e.EvaluateRel(q)
		cold = time.Since(t)
	})
	r.tr.record(0, r.req, "core.evaluate_cold"+suffix, t0, cold)
	if evalErr != nil {
		return nil, evalErr
	}
	if !got.Equal(result) {
		r.chk.violation(fmt.Errorf("replay of %s under %v: hand-built result has %d pairs, EvaluateRel %d", q, st, result.Len(), got.Len()))
	}
	stats := e.Stats()
	r.layers.sample("core.shared_data_ns"+suffix, ns(stats.SharedData))
	r.layers.sample("core.pre_join_ns"+suffix, ns(stats.PreJoin))
	r.layers.sample("core.remainder_ns"+suffix, ns(stats.Remainder))
	r.layers.sample("core.unattributed_share"+suffix, 1-float64(steps)/float64(cold))
	if isDefault {
		r.layers.sample("core.evaluate_cold_ns", ns(cold))
		r.layers.sample("core.alloc_bytes_per_query", bytes)
		r.layers.sample("core.allocs_per_query", objects)
		r.children = r.children[:0]
		r.timed("core.evaluate_warm_ns", func() { _, evalErr = e.EvaluateRel(q) })
		r.children = r.children[:0]
	}
	return result, evalErr
}

// insertEdges times the incremental RTC patch on one update batch's
// worth of seeded vertex pairs.
func (r *replay) insertEdges(structure *rtc.RTC) {
	rng := subSeed(r.seed, 300)
	n := r.in.graph.NumVertices()
	edges := make([]pairs.Pair, updatesPerRound)
	for i := range edges {
		edges[i] = pairs.Pair{Src: graph.VID(rng.Intn(n)), Dst: graph.VID(rng.Intn(n))}
	}
	r.timed("rtc.insert_edges_ns", func() { structure.InsertEdges(edges) })
}

// sideMeasurements times the layer functions that are not steps of the
// default strategy's chain, each on the inputs the chain produced.
func (r *replay) sideMeasurements(q rpq.Expr, inputsOf []clauseInputs, result *pairs.Relation) {
	g := r.in.graph
	t0 := time.Now()
	r.children = r.children[:0]
	for _, ci := range inputsOf {
		if ci.rel != nil {
			continue
		}
		var comps *scc.Components
		r.timed("scc.tarjan_ns", func() { comps = scc.Tarjan(ci.gr) })
		r.layers.count("scc.components", float64(comps.NumComponents()))
		var cond *graph.DiGraph
		r.timed("scc.condense_ns", func() { cond = scc.Condense(ci.gr, comps) })
		r.timed("tc.reduced_closure_ns", func() { tc.BFS(cond) })
		var full *tc.Closure
		if r.layers.sampled("tc.full_closure_ns") {
			// A non-default strategy already timed the full closure.
			full = tc.BFS(ci.gr)
		} else {
			r.timed("tc.full_closure_ns", func() { full = tc.BFS(ci.gr) })
		}
		r.layers.count("tc.full_pairs", float64(full.NumPairs()))
		r.timed("tc.invert_ns", func() { full.Inverted() })
	}
	if result.Len() > 0 {
		var firstDst graph.VID
		result.Each(func(_, dst graph.VID) bool { firstDst = dst; return false })
		r.timed("pairs.transpose_ns", func() { result.SrcsOf(firstDst) })
		r.timed("pairs.page_ns", func() { result.Page(result.Len()/2, pageLimit) })
	}
	r.timed("eval.whole_query_ns", func() { eval.Evaluate(g, q) })

	// Planner accuracy, on its own engine: ExplainAnalyze feeds the
	// cost calibration, which must not leak into a measured engine.
	if p, err := core.New(g, core.Options{}).ExplainAnalyze(q); err == nil {
		for _, c := range p.Clauses {
			if c.ActualPairs > 0 && c.EstOut > 0 {
				r.layers.sample("plan.est_log2_error", math.Abs(math.Log2(c.EstOut/float64(c.ActualPairs))))
			}
		}
	}

	// Pull stream on a cold engine: open to first chunk, then the drain.
	e := core.New(g, core.Options{})
	buf := make([]pairs.Pair, 512)
	var stream *core.ResultStream
	var err error
	open := time.Now()
	r.timed("core.open_stream_ns", func() {
		if stream, err = e.OpenStream(context.Background(), q, core.StreamOptions{}); err == nil {
			_, _, err = stream.Next(buf)
		}
	})
	if err == nil {
		for done := false; !done && err == nil; {
			_, done, err = stream.Next(buf)
		}
		d := time.Since(open)
		// The drain span starts at the open, so the open is its child.
		opened := r.children[len(r.children)-1]
		drain := r.tr.record(0, r.req, "core.stream_drain", open, d)
		r.tr.reparent(drain, opened)
		r.children[len(r.children)-1] = drain
		r.layers.sample("core.stream_drain_ns", ns(d))
		if st := stream.Stats(); st.Pairs > 0 {
			r.layers.sample("core.stream_rows_per_pair", float64(st.Rows)/float64(st.Pairs))
		}
		stream.Close()
	}
	if err != nil {
		r.chk.violation(fmt.Errorf("replay stream of %s: %w", q, err))
	}
	r.root("replay.side", t0)
}
