// Package core implements the paper's query engines:
//
//   - RTCSharing (Algorithms 1 and 2): DNF conversion with outermost
//     Kleene closures as literals, batch-unit evaluation as a relational
//     join over the reduced transitive closure, an RTC cache shared
//     across batch units and queries, and the elimination of useless-1/2
//     and redundant-1/2 operations (Section IV-B).
//   - FullSharing (Abul-Basher [8]): the same sharing discipline, but the
//     shared structure is the heavyweight closure R+_G = TC(G_R) and the
//     join runs at vertex-pair level with duplicate checks everywhere.
//   - NoSharing (Yakovets et al. [5]): each query is evaluated
//     independently — the closure sub-query is re-evaluated and its full
//     closure re-materialised for every query, with nothing reused. (At
//     one query per set it therefore costs the same as FullSharing,
//     matching the paper's Fig. 14.) Kleene-free sub-expressions are
//     evaluated by automaton-product traversal in all three strategies.
//
// Engines record the paper's three-part timing split (Shared_Data,
// PreG ⋈ R+G, Remainder) so the evaluation figures can be regenerated.
// Each call times itself once, in one stage record; the split, the
// per-request StageTimer and EXPLAIN ANALYZE's actual times are folds of
// that record.
//
// # Concurrency
//
// Each engine owns a SharedCache: its values are immutable once
// computed, its shards are locked independently, and concurrent misses
// on one key deduplicate, so every goroutine calling the engine shares
// each closure structure. An Engine is safe for concurrent use: its
// accounting is mutex-guarded, each call folding its timing into it
// once, and automaton-product evaluators (which carry mutable traversal
// scratch) are checked out of a per-version free list, never shared
// between two running evaluations. Every evaluation at one graph epoch
// runs on the engine's one version of it; what belongs to a single call
// — its context, its stage record and timer, its overflow memo — rides
// in an evalCall that only that call's goroutine touches.
//
// # Dynamic graphs
//
// An Engine is not pinned to one frozen graph: ApplyUpdates
// (update.go) applies a batch of edge inserts/deletes, freezes a new
// graph version, advances the SharedCache's epoch (carrying or dropping
// each cached structure) and atomically swaps the engine onto
// the new version. Everything whose lifetime is bounded by one graph
// version — the graph itself, evaluator free lists, join and drain
// scratch pools, the planner with its statistics —
// lives in an engineVersion; an evaluation pins one version at entry and
// uses it throughout, so every result is computed entirely against a
// single graph epoch even while updates land concurrently. The
// accounting that outlives updates (Options, the cache handle, Stats,
// shared-structure summaries) lives in the embedded engineShared.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/plan"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/tc"
)

// Strategy selects the multi-RPQ evaluation method.
type Strategy int

const (
	// RTCSharing shares the reduced transitive closure (this paper).
	RTCSharing Strategy = iota
	// FullSharing shares the full closure R+_G (Abul-Basher [8]).
	FullSharing
	// NoSharing evaluates every query independently (Yakovets et al. [5]).
	NoSharing
)

func (s Strategy) String() string {
	switch s {
	case RTCSharing:
		return "RTC"
	case FullSharing:
		return "Full"
	case NoSharing:
		return "No"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Options configure an Engine.
type Options struct {
	// Strategy selects the evaluation method. Default: RTCSharing.
	Strategy Strategy
}

// Stats is the paper's timing and size accounting for a sequence of
// evaluations (Section V-A). Each call adds its times once, when it
// returns, as a fold of its stage record:
//
//   - SharedData: computing the shared structure. For RTCSharing that
//     is the whole RTC build from R's product graph — the product, its
//     SCCs and condensation, and the reach table — since R_G is never
//     evaluated. For FullSharing it is TC(G_R); evaluating R_G and
//     reducing it to G_R are excluded and land in Remainder.
//   - PreJoin: the Pre_G ⋈ R+_G join — Algorithm 2 lines 4–12 for
//     RTCSharing, the vertex-pair-level join for FullSharing. RTCSharing
//     pushes Post through the condensation, so its PreJoin also holds
//     the component-row ORs and the emission that replace the Post join.
//   - Remainder: everything both methods share — DNF conversion,
//     evaluating Pre_G, the Post traversals (and, for FullSharing,
//     evaluating R_G and the pair-level Post join), and result unions.
//
// A cache hit, or a wait on another call's computation, is in none of
// the three: the call that computed the value accounts the work.
type Stats struct {
	SharedData time.Duration
	PreJoin    time.Duration
	Remainder  time.Duration

	// Queries is the number of top-level evaluations: EvaluateRel, the
	// entry points built on it and streams, memo hits included.
	Queries int
	// CacheHits / CacheMisses count shared-structure lookups. Under
	// singleflight a goroutine that waited for another's in-flight
	// computation counts a hit: the structure was computed once.
	CacheHits, CacheMisses int
}

// Total returns the full query response time.
func (s Stats) Total() time.Duration { return s.SharedData + s.PreJoin + s.Remainder }

// Add folds other into s — how a caller sums the splits of several
// engines or runs.
func (s *Stats) Add(other Stats) {
	s.SharedData += other.SharedData
	s.PreJoin += other.PreJoin
	s.Remainder += other.Remainder
	s.Queries += other.Queries
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
}

// SharedSummary describes one cached shared structure (one sub-query R)
// in the paper's quantities. An RTC built from R's product graph holds
// neither G_R nor TC(Ḡ_R); the summary reports them all the same.
type SharedSummary struct {
	// R is the canonical text of the sub-query.
	R string
	// SharedPairs is the paper's shared data size (Fig. 12): |TC(Ḡ_R)|
	// for RTCSharing, which the RTC does not store — SharedSummaries and
	// SharedPairsTotal compute it on demand — and |TC(G_R)| for
	// FullSharing.
	SharedPairs int
	// ReducedVertices is |V̄_R̄| for RTCSharing, the components holding
	// vertices of V_R, and |V_R| for FullSharing (Fig. 13).
	ReducedVertices int
	// EdgeReducedVertices is |V_R|, the vertices on some R path.
	EdgeReducedVertices int
	// AvgSCCSize is the average vertices per SCC of G_R (RTCSharing
	// only; 0 for FullSharing).
	AvgSCCSize float64
}

// summaryEntry is a SharedSummary as recorded, with the RTC whose
// |TC(Ḡ_R)| it reports on demand (nil for a full closure).
type summaryEntry struct {
	SharedSummary
	structure *rtc.RTC
}

// resolve returns the summary with SharedPairs filled in.
func (s summaryEntry) resolve() SharedSummary {
	out := s.SharedSummary
	if s.structure != nil {
		out.SharedPairs = s.structure.NumSharedPairs()
	}
	return out
}

// engineShared is the part of an Engine that survives graph updates:
// configuration, the cache handle, and the accumulated accounting.
type engineShared struct {
	opts  Options
	cache *SharedCache

	// mu guards stats and summaries.
	mu        sync.Mutex
	stats     Stats
	summaries map[string]summaryEntry

	// evalHook, when non-nil, runs at the start of every
	// EvaluateRel-pipeline or ExplainAnalyze evaluation and every cold
	// stream — the fault-injection seam the panic-isolation tests use.
	// Install via SetEvalHook before serving starts.
	evalHook func(query string)
}

// engineVersion is everything whose lifetime is bounded by one graph
// version. An evaluation loads the engine's current version once and
// uses it end to end, so a concurrent ApplyUpdates never mixes graph
// epochs within one query. Every evaluation at the version's epoch
// shares it. The embedded *engineShared routes timing and summary
// accounting back to the owning engine.
type engineVersion struct {
	*engineShared
	g     *graph.Graph
	epoch uint64

	// kernelPool holds the row kernels of the RTCSharing producer,
	// fullPool the pair-level producers of Full/NoSharing, and drainPool
	// the accumulator, run store and run names of the sealed driver.
	// All are version-local free lists: steady-state batch evaluation
	// reuses the same columns instead of allocating per call.
	kernelPool sync.Pool
	fullPool   sync.Pool
	drainPool  sync.Pool

	// evalMu guards evalFree, a free list of automaton-product
	// evaluators per expression. Evaluators carry mutable traversal
	// scratch, so a running evaluation holds one exclusively and
	// returns it when done.
	evalMu   sync.Mutex
	evalFree map[string][]*eval.Evaluator

	// plannerOnce/qplanner hold the lazily built clause planner — per
	// version, so an update refreshes the planner's graph statistics.
	// The planner itself is immutable; its cached-structure callback
	// reads the (locked) SharedCache at plan time.
	plannerOnce sync.Once
	qplanner    *plan.Planner
}

// Engine evaluates regular path queries over one (updatable) graph with
// one strategy, sharing closure structures and sealed relations through
// the SharedCache it owns. It is safe for concurrent use: every call at
// one graph epoch shares the engine's version of it and its cache, and
// carries its own context, stage timer and overflow memo in an
// evalCall. ApplyUpdates mutates the graph between query batches — see
// update.go.
type Engine struct {
	engineShared

	// ver is the current graph version, swapped atomically by
	// ApplyUpdates. Readers pin it once per evaluation.
	ver atomic.Pointer[engineVersion]

	// updMu serialises ApplyUpdates.
	updMu sync.Mutex
}

// New returns an Engine over g at graph epoch 0, with an empty cache of
// its own.
func New(g *graph.Graph, opts Options) *Engine { return newEngine(g, 0, opts) }

// newEngine returns an Engine over g at the given graph epoch, with an
// empty SharedCache pinned to that epoch.
func newEngine(g *graph.Graph, epoch uint64, opts Options) *Engine {
	e := &Engine{
		engineShared: engineShared{
			opts:      opts,
			cache:     newSharedCache(epoch),
			summaries: make(map[string]summaryEntry),
		},
	}
	e.ver.Store(newEngineVersion(&e.engineShared, g, epoch))
	return e
}

// newEngineVersion builds the version-scoped state for one graph epoch.
func newEngineVersion(sh *engineShared, g *graph.Graph, epoch uint64) *engineVersion {
	v := &engineVersion{
		engineShared: sh,
		g:            g,
		epoch:        epoch,
		evalFree:     make(map[string][]*eval.Evaluator),
	}
	v.kernelPool.New = func() any { return &rowKernel{} }
	v.fullPool.New = func() any { return &fullJoin{} }
	v.drainPool.New = func() any {
		return &drainScratch{acc: pairs.NewRunAccumulator(g.NumVertices()), index: make(map[uint64]int32)}
	}
	return v
}

// version pins the engine's current graph version.
func (e *Engine) version() *engineVersion { return e.ver.Load() }

// evalCall is the state of one call into the engine: the graph version
// it pinned at entry, its cancellation context and checkpoint budget,
// its stage record and timer, and its overflow memo. Every call at one
// epoch shares the version — its pools, free lists and planner — while
// the call itself is driven by one goroutine at a time, so nothing in
// it is locked. Its record reaches Stats and its timer once per entry.
type evalCall struct {
	*engineVersion

	// ctx, when non-nil, is polled each time budget rows of join or
	// closure work run out; see checkpoint.
	ctx    context.Context
	budget int

	// rec is the call's one clock; stages, when non-nil, receives its
	// per-stage fold.
	rec    stageRecord
	stages *StageTimer

	// overflow keeps the sealed relations the relation region's budget
	// declined, for the rest of this call only, so a full region still
	// seals a sub-query shared by two clauses once. Holding them longer
	// on a shared version would keep them past the region's budget until
	// the next update. Allocated on first use.
	overflow map[string]*pairs.Relation
}

// call pins the engine's current version for one call, with ctx and st
// attached; either may be nil.
func (e *Engine) call(ctx context.Context, st *StageTimer) *evalCall {
	c := &evalCall{engineVersion: e.version(), stages: st}
	if ctx != nil {
		c.ctx, c.budget = ctx, checkpointRows
	}
	return c
}

// Graph returns the engine's current graph version.
func (e *Engine) Graph() *graph.Graph { return e.version().g }

// Epoch returns the graph epoch of the engine's current version.
func (e *Engine) Epoch() uint64 { return e.version().epoch }

// Options returns the engine's configuration.
func (sh *engineShared) Options() Options { return sh.opts }

// Cache returns the engine's cache, whose Counters report its activity.
func (sh *engineShared) Cache() *SharedCache { return sh.cache }

// Stats returns the accumulated timing split.
func (sh *engineShared) Stats() Stats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.stats
}

// SharedSummaries returns one summary per shared structure this engine
// has used, in unspecified order.
// An RTC's SharedPairs, |TC(Ḡ_R)|, is computed here on first request.
func (sh *engineShared) SharedSummaries() []SharedSummary {
	sh.mu.Lock()
	entries := make([]summaryEntry, 0, len(sh.summaries))
	for _, s := range sh.summaries {
		entries = append(entries, s)
	}
	sh.mu.Unlock()
	out := make([]SharedSummary, len(entries))
	for i, s := range entries {
		out[i] = s.resolve()
	}
	return out
}

// SharedPairsTotal sums SharedPairs over all cached shared structures —
// the paper's "shared data size" metric (Fig. 12).
func (sh *engineShared) SharedPairsTotal() int {
	total := 0
	for _, s := range sh.SharedSummaries() {
		total += s.SharedPairs
	}
	return total
}

// EvaluateQuery parses q and evaluates it with EvaluateRel.
func (e *Engine) EvaluateQuery(q string) (*pairs.Relation, error) {
	expr, err := rpq.Parse(q)
	if err != nil {
		return nil, err
	}
	return e.EvaluateRel(expr)
}

// EvaluateRel computes Q_G under the engine's strategy, against the
// graph version current when the call starts. The result is the
// executor's sealed relation, handed over as-is: pairs grouped by source
// in sorted runs (iterate with Each/EachSrc, page with Page, probe with
// Contains). It is immutable and may be shared with the result memo.
func (e *Engine) EvaluateRel(q rpq.Expr) (*pairs.Relation, error) {
	rel, _, err := e.EvaluateRelEpoch(q)
	return rel, err
}

// EvaluateRelEpoch is EvaluateRel plus the graph epoch the evaluation
// was pinned to — the single-query form of the query service's demux
// hooks: a server stamps each response with the epoch so clients can
// tell when two pages of one result straddled an update.
func (e *Engine) EvaluateRelEpoch(q rpq.Expr) (*pairs.Relation, uint64, error) {
	c := e.call(nil, nil)
	rel, err := c.evaluate(q)
	return rel, c.epoch, err
}

// CachedResult returns the memoised top-level result of q at the
// engine's current graph epoch, if the result cache holds a
// completed one — the query service's non-blocking fast path: a hit
// answers a request instantly, without taking an evaluation slot. A
// miss reports false without computing anything. NoSharing engines
// never cache, so they always miss.
func (e *Engine) CachedResult(q rpq.Expr) (*pairs.Relation, uint64, bool) {
	v := e.version()
	if !v.shouldCache() {
		return nil, 0, false
	}
	val, found := e.cache.lookup(&e.cache.relations, v.epoch, q.String())
	if !found {
		return nil, 0, false
	}
	e.mu.Lock()
	e.stats.Queries++
	e.mu.Unlock()
	return val.(*pairs.Relation), v.epoch, true
}

// evaluate runs the EvaluateRel pipeline for q on this call.
func (c *evalCall) evaluate(q rpq.Expr) (*pairs.Relation, error) {
	defer c.fold()
	c.begin(q)
	return c.subEvaluateRel(q)
}

// begin counts one top-level query and runs the eval hook on it.
func (c *evalCall) begin(q rpq.Expr) {
	c.mu.Lock()
	c.stats.Queries++
	c.mu.Unlock()
	if c.evalHook != nil {
		c.evalHook(q.String())
	}
}

// EvalBatchUnit runs Algorithm 2 (EvalBatchUnit) for RTCSharing, the
// row kernel's join (rowkernel.go), on the engine's current graph
// version, so benchmarks can measure it in isolation. Inputs over
// another vertex space than the graph's are rejected with an error.
func (e *Engine) EvalBatchUnit(preG *pairs.Relation, structure *rtc.RTC, typ rpq.ClosureType, post rpq.Expr) (*pairs.Relation, error) {
	c := e.call(nil, nil)
	defer c.fold()
	if err := c.checkSpaces(preG, structure.NumVertices()); err != nil {
		return nil, err
	}
	c.enter(bucketJoin)
	return c.sealClause(c.acquireKernel(preG, structure, typ, post))
}

// EvalBatchUnitFull is EvalBatchUnit for FullSharing: the same logical
// join Pre_G ⋈ R+_G ⋈ Post_G, driven by fullJoin at vertex-pair level
// over the full closure and drained.
func (e *Engine) EvalBatchUnitFull(preG *pairs.Relation, closure *tc.Closure, typ rpq.ClosureType, post rpq.Expr) (*pairs.Relation, error) {
	c := e.call(nil, nil)
	defer c.fold()
	if err := c.checkSpaces(preG, closure.NumVertices()); err != nil {
		return nil, err
	}
	c.enter(bucketJoin)
	return c.sealClause(c.acquireFull(preG, closure, typ, post))
}

// checkSpaces verifies, before a join starts, that Pre_G and the closure
// structure both cover the graph's vertex space: a mismatch would
// otherwise index out of range in the middle of the join.
func (v *engineVersion) checkSpaces(preG *pairs.Relation, structureVertices int) error {
	n := v.g.NumVertices()
	if got := preG.NumVertices(); got != n {
		return fmt.Errorf("core: Pre_G covers %d vertices, the graph has %d", got, n)
	}
	if structureVertices != n {
		return fmt.Errorf("core: the closure structure covers %d vertices, the graph has %d", structureVertices, n)
	}
	return nil
}

// countLookup records a shared-structure cache hit or miss plus the
// summary of the structure involved (and the RTC, when it is one), so
// SharedSummaries reflects every structure the engine used.
func (sh *engineShared) countLookup(hit bool, v *sharedValue) {
	sh.mu.Lock()
	if hit {
		sh.stats.CacheHits++
	} else {
		sh.stats.CacheMisses++
	}
	sh.summaries[v.summary.R] = summaryEntry{v.summary, v.rtc}
	sh.mu.Unlock()
}

// acquireEvaluator checks an automaton-product evaluator for q out of
// the free list, compiling a fresh one when none is idle. The caller
// owns it exclusively until releaseEvaluator.
func (v *engineVersion) acquireEvaluator(q rpq.Expr) (*eval.Evaluator, string) {
	key := q.String()
	v.evalMu.Lock()
	if free := v.evalFree[key]; len(free) > 0 {
		ev := free[len(free)-1]
		v.evalFree[key] = free[:len(free)-1]
		v.evalMu.Unlock()
		return ev, key
	}
	v.evalMu.Unlock()
	return eval.New(v.g, q, eval.Options{}), key
}

// releaseEvaluator returns an evaluator to the free list for reuse.
func (v *engineVersion) releaseEvaluator(key string, ev *eval.Evaluator) {
	v.evalMu.Lock()
	v.evalFree[key] = append(v.evalFree[key], ev)
	v.evalMu.Unlock()
}

// planner returns this version's clause planner, building it on first
// use from the version's graph statistics. The cached-structure probe
// lets the plan report, and the cost estimate exclude, closure
// structures that already exist.
func (v *engineVersion) planner() *plan.Planner {
	v.plannerOnce.Do(func() {
		v.qplanner = plan.New(v.g, plan.Config{SharedCached: v.sharedStructureCached})
	})
	return v.qplanner
}

// sharedStructureCached reports whether the shared closure structure for
// r is already in the cache at this version's epoch. NoSharing engines
// never have sunk structures.
func (v *engineVersion) sharedStructureCached(r rpq.Expr) bool {
	if !v.shouldCache() {
		return false
	}
	_, ok := v.cache.lookup(&v.cache.structures, v.epoch, r.String())
	return ok
}
