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
//
// # Concurrency
//
// The shared structures live in a SharedCache: immutable once computed,
// sharded, with singleflight deduplication, so any number of engines —
// and any number of goroutines calling one engine — can share one cache.
// An Engine is safe for concurrent use: its timing split and summaries
// are mutex-guarded, and automaton-product evaluators (which carry
// mutable traversal scratch) are checked out of a per-engine free list,
// never shared between two running evaluations. EvaluateBatchParallel
// fans a query batch over worker engines forked from the receiver; the
// forks share the receiver's cache and fold their Stats back into it.
//
// # Dynamic graphs
//
// An Engine is no longer pinned to one frozen graph: ApplyUpdates
// (update.go) applies a batch of edge inserts/deletes, freezes a new
// graph version, advances the SharedCache's epoch (carrying or dropping
// each cached structure) and atomically swaps the engine onto
// the new version. Everything whose lifetime is bounded by one graph
// version — the graph itself, sub-result memos, evaluator free lists,
// join-scratch and builder pools, the planner with its statistics —
// lives in an engineVersion; an evaluation pins one version at entry and
// uses it throughout, so every result is computed entirely against a
// single graph epoch even while updates land concurrently. The
// accounting that outlives updates (Options, the cache handle, Stats,
// shared-structure summaries) lives in the embedded engineShared.
package core

import (
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
	// MaxDNFClauses bounds the DNF conversion; 0 means
	// rpq.DefaultMaxClauses.
	MaxDNFClauses int
}

// Stats is the paper's timing and size accounting for a sequence of
// evaluations (Section V-A):
//
//   - SharedData: computing the shared structure — TC(Ḡ_R) (plus SCCs)
//     for RTCSharing, TC(G_R) for FullSharing. Evaluating R_G is excluded
//     (both methods do it identically; it lands in Remainder).
//   - PreJoin: the Pre_G ⋈ R+_G join — Algorithm 2 lines 4–12 for
//     RTCSharing, the vertex-pair-level join for FullSharing. RTCSharing
//     pushes Post through the condensation, so its PreJoin also holds
//     the component-row ORs and the emission that replace the Post join.
//   - Remainder: everything both methods share — DNF conversion,
//     evaluating Pre_G and R_G, the Post traversals (and, for
//     FullSharing, the pair-level Post join), and result unions.
type Stats struct {
	SharedData time.Duration
	PreJoin    time.Duration
	Remainder  time.Duration

	// Queries is the number of top-level Evaluate calls.
	Queries int
	// CacheHits / CacheMisses count shared-structure lookups. Under
	// singleflight a goroutine that waited for another's in-flight
	// computation counts a hit: the structure was computed once.
	CacheHits, CacheMisses int
}

// Total returns the full query response time.
func (s Stats) Total() time.Duration { return s.SharedData + s.PreJoin + s.Remainder }

// Add folds other into s — the race-free aggregation step of
// EvaluateBatchParallel (each worker accumulates privately; the parent
// sums the per-worker splits after the join).
func (s *Stats) Add(other Stats) {
	s.SharedData += other.SharedData
	s.PreJoin += other.PreJoin
	s.Remainder += other.Remainder
	s.Queries += other.Queries
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
}

// SharedSummary describes one cached shared structure (one sub-query R).
type SharedSummary struct {
	// R is the canonical text of the sub-query.
	R string
	// SharedPairs is the pair count of the shared structure: |TC(Ḡ_R)|
	// for RTCSharing, |TC(G_R)| for FullSharing (Fig. 12).
	SharedPairs int
	// ReducedVertices is |V̄_R̄| for RTCSharing and |V_R| for FullSharing
	// (Fig. 13).
	ReducedVertices int
	// EdgeReducedVertices is |V_R| (both methods build G_R).
	EdgeReducedVertices int
	// AvgSCCSize is the average vertices per SCC of G_R (RTCSharing
	// only; 0 for FullSharing).
	AvgSCCSize float64
}

// engineShared is the part of an Engine that survives graph updates:
// configuration, the cache handle, and the accumulated accounting.
type engineShared struct {
	opts  Options
	cache *SharedCache

	// mu guards stats, summaries and stages.
	mu        sync.Mutex
	stats     Stats
	summaries map[string]SharedSummary

	// stages, when non-nil, receives the per-stage breakdown of the
	// evaluation running on this engine. It is only ever attached to
	// private forks (one evaluation at a time), so each timer has a
	// single writer; see StageTimer.
	stages *StageTimer

	// cancel, when non-nil, is the cooperative-cancellation state of the
	// evaluation running on this engine. Like stages it is only ever
	// attached to private forks (one evaluation, one goroutine), so it
	// is read in the join and closure hot loops without locking; see
	// cancel.go.
	cancel *cancelState

	// evalHook, when non-nil, runs at the start of every
	// EvaluateRel-pipeline or ExplainAnalyze evaluation — the
	// fault-injection seam the panic-isolation tests use. Copied to
	// forks; install via SetEvalHook before serving starts.
	evalHook func(query string)
}

// engineVersion is everything whose lifetime is bounded by one graph
// version. An evaluation loads the engine's current version once and
// uses it end to end, so a concurrent ApplyUpdates never mixes graph
// epochs within one query. The embedded *engineShared routes timing and
// summary accounting back to the owning engine.
type engineVersion struct {
	*engineShared
	g     *graph.Graph
	epoch uint64

	// subMu guards subRels, the executor's *overflow* memo: sealed
	// relations normally memoise in the SharedCache's relation region,
	// shared across engines, but when the region's budget declines
	// retention the version keeps the relation here — bounded by the
	// version's lifetime — so a full shared region degrades to per-engine
	// memoisation, never to recomputing every batch unit.
	subMu   sync.Mutex
	subRels map[string]*pairs.Relation

	// scratchPool holds joinScratch values — the generation-stamped sets
	// and tuple buffers of the pair-level join and the ASK probe —
	// kernelPool holds the forward RTC join's row kernels, and
	// builderPool holds relation builders sized to this version's vertex
	// space. All are version-local free lists: steady-state batch
	// evaluation reuses the same columns instead of allocating per call.
	scratchPool sync.Pool
	kernelPool  sync.Pool
	builderPool sync.Pool

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
// one strategy. It is safe for concurrent use; engines created with
// NewWithCache or Fork additionally share their closure structures with
// each other. ApplyUpdates mutates the graph between query batches —
// see update.go.
type Engine struct {
	engineShared

	// ver is the current graph version, swapped atomically by
	// ApplyUpdates. Readers pin it once per evaluation.
	ver atomic.Pointer[engineVersion]

	// updMu serialises ApplyUpdates; live is the mutable graph the
	// updates accumulate into, lazily forked from the frozen graph.
	updMu sync.Mutex
	live  *graph.Mutable
}

// New returns an Engine over g with a private SharedCache.
func New(g *graph.Graph, opts Options) *Engine {
	return NewWithCache(g, opts, NewSharedCache())
}

// NewWithCache returns an Engine over g that stores its shared closure
// structures in cache. Engines over the same graph with the same
// strategy may share one cache: a sub-query computed by any of them is
// reused by all, which extends the paper's intra-batch sharing across
// concurrent query streams. The cache must not be shared between
// engines with different graphs or strategies — the cache key is the
// sub-query text, which does not encode those. (After ApplyUpdates the
// updated engine's epoch diverges from engines still on the old graph;
// the epoch rules keep them correct, at the price of no sharing between
// them.)
func NewWithCache(g *graph.Graph, opts Options, cache *SharedCache) *Engine {
	if cache == nil {
		cache = NewSharedCache()
	}
	e := &Engine{
		engineShared: engineShared{
			opts:      opts,
			cache:     cache,
			summaries: make(map[string]SharedSummary),
		},
	}
	e.ver.Store(newEngineVersion(&e.engineShared, g, cache.CurrentEpoch()))
	return e
}

// newEngineVersion builds the version-scoped state for one graph epoch.
func newEngineVersion(sh *engineShared, g *graph.Graph, epoch uint64) *engineVersion {
	v := &engineVersion{
		engineShared: sh,
		g:            g,
		epoch:        epoch,
		subRels:      make(map[string]*pairs.Relation),
		evalFree:     make(map[string][]*eval.Evaluator),
	}
	v.scratchPool.New = func() any { return &joinScratch{} }
	v.kernelPool.New = func() any { return &rowKernel{} }
	v.builderPool.New = func() any { return pairs.NewBuilder(g.NumVertices()) }
	return v
}

// version pins the engine's current graph version.
func (e *Engine) version() *engineVersion { return e.ver.Load() }

// Fork returns a new engine over the same graph version and options,
// sharing the receiver's SharedCache but nothing else: the fork has zero
// Stats, its own summaries, and its own evaluator free list. Forks are
// how EvaluateBatchParallel builds its workers; they are also the cheap
// way to hand each request goroutine of a server its own engine while
// keeping one process-wide cache. A fork pins the graph version current
// at fork time: updates applied to the parent afterwards do not
// propagate to it.
func (e *Engine) Fork() *Engine {
	return e.forkVersion(e.version())
}

// forkVersion is Fork pinned to an explicit version — how
// EvaluateBatchParallel gives every worker of one batch the same graph
// epoch.
func (e *Engine) forkVersion(v *engineVersion) *Engine {
	f := &Engine{
		engineShared: engineShared{
			opts:      e.opts,
			cache:     e.cache,
			summaries: make(map[string]SharedSummary),
			evalHook:  e.evalHook,
		},
	}
	f.ver.Store(newEngineVersion(&f.engineShared, v.g, v.epoch))
	return f
}

// Graph returns the engine's current graph version.
func (e *Engine) Graph() *graph.Graph { return e.version().g }

// Epoch returns the graph epoch of the engine's current version.
func (e *Engine) Epoch() uint64 { return e.version().epoch }

// Options returns the engine's configuration.
func (sh *engineShared) Options() Options { return sh.opts }

// Cache returns the engine's shared-structure cache.
func (sh *engineShared) Cache() *SharedCache { return sh.cache }

// Stats returns the accumulated timing split.
func (sh *engineShared) Stats() Stats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.stats
}

// ResetStats zeroes the timing split (the caches are kept; use
// ClearCaches to drop them).
func (sh *engineShared) ResetStats() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.stats = Stats{}
}

// ClearCaches drops all shared structures and memoised sub-results.
// Because the structures live in the SharedCache, this affects every
// engine sharing it.
func (e *Engine) ClearCaches() {
	e.cache.Reset()
	e.mu.Lock()
	e.summaries = make(map[string]SharedSummary)
	e.mu.Unlock()
	v := e.version()
	v.subMu.Lock()
	v.subRels = make(map[string]*pairs.Relation)
	v.subMu.Unlock()
	v.evalMu.Lock()
	v.evalFree = make(map[string][]*eval.Evaluator)
	v.evalMu.Unlock()
}

// SharedSummaries returns one summary per shared structure this engine
// has used (computed or fetched from the cache), in unspecified order.
func (sh *engineShared) SharedSummaries() []SharedSummary {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]SharedSummary, 0, len(sh.summaries))
	for _, s := range sh.summaries {
		out = append(out, s)
	}
	return out
}

// SharedPairsTotal sums SharedPairs over all cached shared structures —
// the paper's "shared data size" metric (Fig. 12).
func (sh *engineShared) SharedPairsTotal() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	total := 0
	for _, s := range sh.summaries {
		total += s.SharedPairs
	}
	return total
}

// EvaluateQuery parses and evaluates q.
func (e *Engine) EvaluateQuery(q string) (*pairs.Set, error) {
	expr, err := rpq.Parse(q)
	if err != nil {
		return nil, err
	}
	return e.Evaluate(expr)
}

// Evaluate computes Q_G for the query under the engine's strategy,
// against the graph version current when the call starts.
func (e *Engine) Evaluate(q rpq.Expr) (*pairs.Set, error) {
	e.mu.Lock()
	e.stats.Queries++
	e.mu.Unlock()
	return e.version().evaluateSharing(q)
}

// EvaluateRel computes Q_G and returns it in the executor's native
// sealed form: the result relation is handed over as-is — no hash-set
// materialisation at the boundary — which is the cheapest way to consume
// large results (iterate with Each/EachSrc, probe with Contains).
func (e *Engine) EvaluateRel(q rpq.Expr) (*pairs.Relation, error) {
	rel, _, err := e.EvaluateRelEpoch(q)
	return rel, err
}

// EvaluateRelEpoch is EvaluateRel plus the graph epoch the evaluation
// was pinned to — the single-query form of the query service's demux
// hooks: a server stamps each response with the epoch so clients can
// tell when two pages of one result straddled an update.
func (e *Engine) EvaluateRelEpoch(q rpq.Expr) (*pairs.Relation, uint64, error) {
	e.mu.Lock()
	e.stats.Queries++
	e.mu.Unlock()
	v := e.version()
	rel, err := v.evaluateRel(q)
	return rel, v.epoch, err
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
	key := q.String()
	v.subMu.Lock()
	rel, ok := v.subRels[key]
	v.subMu.Unlock()
	if !ok {
		val, found := e.cache.LookupRelation(v.epoch, key)
		if !found {
			return nil, 0, false
		}
		rel = val.(*pairs.Relation)
	}
	e.mu.Lock()
	e.stats.Queries++
	e.mu.Unlock()
	return rel, v.epoch, true
}

// evaluateRel runs the EvaluateRel pipeline entirely against this
// pinned version.
func (v *engineVersion) evaluateRel(q rpq.Expr) (*pairs.Relation, error) {
	if v.evalHook != nil {
		v.evalHook(q.String())
	}
	return v.evaluateRelCached(q)
}

// EvaluateQueryRel parses q and evaluates it with EvaluateRel.
func (e *Engine) EvaluateQueryRel(q string) (*pairs.Relation, error) {
	expr, err := rpq.Parse(q)
	if err != nil {
		return nil, err
	}
	return e.EvaluateRel(expr)
}

// EvaluateSet evaluates a multiple-RPQ set in order, sharing structures
// across the queries (for NoSharing, simply evaluating them one by one).
func (e *Engine) EvaluateSet(qs []rpq.Expr) ([]*pairs.Set, error) {
	out := make([]*pairs.Set, len(qs))
	for i, q := range qs {
		res, err := e.Evaluate(q)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// EvalBatchUnit exposes the columnar Algorithm 2 join on the engine's
// current graph version; see engineVersion.EvalBatchUnit. Inputs over
// another vertex space than the graph's are rejected with an error.
func (e *Engine) EvalBatchUnit(preG *pairs.Relation, structure *rtc.RTC, typ rpq.ClosureType, post rpq.Expr) (*pairs.Relation, error) {
	v := e.version()
	if err := v.checkSpaces(preG, len(structure.Components().CompOf)); err != nil {
		return nil, err
	}
	return v.EvalBatchUnit(preG, structure, typ, post)
}

// EvalBatchUnitFull exposes FullSharing's pair-level join; see
// engineVersion.EvalBatchUnitFull. Inputs over another vertex space than
// the graph's are rejected with an error.
func (e *Engine) EvalBatchUnitFull(preG *pairs.Relation, closure *tc.Closure, typ rpq.ClosureType, post rpq.Expr) (*pairs.Relation, error) {
	v := e.version()
	if err := v.checkSpaces(preG, closure.NumVertices()); err != nil {
		return nil, err
	}
	return v.EvalBatchUnitFull(preG, closure, typ, post)
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

// addShared, addPreJoin and addRemainder attribute elapsed time to the
// three-part split under the stats lock; when a StageTimer is attached
// they additionally attribute to the matching per-request stage
// (closure-build, join, other). addPlan and addSeal are addRemainder
// with a finer stage — planning and relation sealing still count as
// Remainder in the paper's split, but the latency breakdown keeps them
// apart.
func (sh *engineShared) addShared(d time.Duration) {
	sh.mu.Lock()
	sh.stats.SharedData += d
	if sh.stages != nil {
		sh.stages.ClosureBuildNS += d.Nanoseconds()
	}
	sh.mu.Unlock()
}

func (sh *engineShared) addPreJoin(d time.Duration) {
	sh.mu.Lock()
	sh.stats.PreJoin += d
	if sh.stages != nil {
		sh.stages.JoinNS += d.Nanoseconds()
	}
	sh.mu.Unlock()
}

func (sh *engineShared) addRemainder(d time.Duration) {
	sh.mu.Lock()
	sh.stats.Remainder += d
	if sh.stages != nil {
		sh.stages.OtherNS += d.Nanoseconds()
	}
	sh.mu.Unlock()
}

func (sh *engineShared) addPlan(d time.Duration) {
	sh.mu.Lock()
	sh.stats.Remainder += d
	if sh.stages != nil {
		sh.stages.PlanNS += d.Nanoseconds()
	}
	sh.mu.Unlock()
}

func (sh *engineShared) addSeal(d time.Duration) {
	sh.mu.Lock()
	sh.stats.Remainder += d
	if sh.stages != nil {
		sh.stages.SealNS += d.Nanoseconds()
	}
	sh.mu.Unlock()
}

// stageClosureWait attributes time spent waiting on another
// goroutine's in-flight closure computation (a singleflight hit) to
// the closure-build stage of the waiter's request — without touching
// Stats, where the computing engine already accounted the work. The
// waiter's wall clock really did pass here, so the per-request
// breakdown must see it even though the three-part split must not.
func (sh *engineShared) stageClosureWait(d time.Duration) {
	sh.mu.Lock()
	if sh.stages != nil {
		sh.stages.ClosureBuildNS += d.Nanoseconds()
	}
	sh.mu.Unlock()
}

// stageOtherWait is stageClosureWait for sub-relation memo boundaries:
// wall time a waiter spent on a relation-region singleflight (or a
// warm memo probe), attributed to Other without double-counting Stats.
func (sh *engineShared) stageOtherWait(d time.Duration) {
	sh.mu.Lock()
	if sh.stages != nil {
		sh.stages.OtherNS += d.Nanoseconds()
	}
	sh.mu.Unlock()
}

// countLookup records a shared-structure cache hit or miss plus the
// summary of the structure involved, so SharedSummaries reflects every
// structure the engine used regardless of which engine computed it.
func (sh *engineShared) countLookup(hit bool, sum SharedSummary) {
	sh.mu.Lock()
	if hit {
		sh.stats.CacheHits++
	} else {
		sh.stats.CacheMisses++
	}
	sh.summaries[sum.R] = sum
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

func (sh *engineShared) maxClauses() int {
	if sh.opts.MaxDNFClauses > 0 {
		return sh.opts.MaxDNFClauses
	}
	return rpq.DefaultMaxClauses
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
// r is already in the cache — at this version's epoch — under the
// engine's strategy. NoSharing engines never have sunk structures.
func (v *engineVersion) sharedStructureCached(r rpq.Expr) bool {
	if !v.shouldCache() {
		return false
	}
	key := r.String()
	switch v.opts.Strategy {
	case RTCSharing:
		_, ok := v.cache.Lookup(v.epoch, nsRTC+key)
		return ok
	default:
		_, ok := v.cache.Lookup(v.epoch, nsFull+key)
		return ok
	}
}
