// Package rtcshare evaluates regular path queries (RPQs) over
// edge-labeled directed multigraphs, sharing a reduced transitive closure
// (RTC) across queries.
//
// It is a from-scratch Go implementation of
//
//	Na, Moon, Yi, Whang, Hyun:
//	"Regular Path Query Evaluation Sharing a Reduced Transitive Closure
//	 Based on Graph Reduction", ICDE 2022 (arXiv:2111.06918).
//
// An RPQ such as "follows.(mentions.follows)+.likes" returns the ordered
// vertex pairs connected by a path whose edge-label sequence matches the
// expression. Kleene closures make RPQs expensive; when several queries
// share a closure sub-query R+, this library evaluates R once, reduces
// the resulting graph at the edge level (paths → edges) and the vertex
// level (strongly connected components → vertices), computes the
// transitive closure of the small reduced graph, and shares that reduced
// transitive closure across all queries (the paper's RTCSharing
// algorithm). The FullSharing and NoSharing baselines from the paper's
// evaluation are included for comparison.
//
// # Quick start
//
//	b := rtcshare.NewGraphBuilder(4)
//	b.MustAddEdge(0, "follows", 1)
//	b.MustAddEdge(1, "follows", 2)
//	b.MustAddEdge(2, "follows", 0)
//	b.MustAddEdge(2, "likes", 3)
//	g := b.Build()
//
//	engine := rtcshare.NewEngine(g, rtcshare.Options{})
//	res, err := engine.EvaluateQuery("follows+.likes")
//
// See the examples/ directory for complete programs and DESIGN.md for the
// mapping between the paper and the packages under internal/.
package rtcshare

import (
	"context"
	"io"
	"net"
	"net/http"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/server"
	"rtcshare/internal/store"
)

// VID identifies a vertex: dense integers in [0, NumVertices).
type VID = graph.VID

// Graph is an immutable edge-labeled directed multigraph (the data model
// of the paper, Section II-A). Build one with NewGraphBuilder or load one
// with ReadGraph.
type Graph = graph.Graph

// GraphBuilder accumulates labeled edges and freezes them into a Graph.
type GraphBuilder = graph.Builder

// MutableGraph is a mutable labeled multigraph supporting interleaved
// InsertEdge/DeleteEdge with incrementally maintained per-label
// statistics, freezable into an immutable Graph any number of times —
// the ingestion side of the dynamic-graph subsystem. (Engines take
// updates directly through Engine.ApplyUpdates; a MutableGraph is for
// building and evolving graphs outside an engine.)
type MutableGraph = graph.Mutable

// GraphStats summarises a graph (|V|, |E|, |Σ|, degree per label).
type GraphStats = graph.Stats

// NewGraphBuilder returns a builder for a graph with the given number of
// vertices.
func NewGraphBuilder(numVertices int) *GraphBuilder {
	return graph.NewBuilder(numVertices)
}

// NewMutableGraph returns an empty mutable graph over the dense vertex
// space [0, numVertices).
func NewMutableGraph(numVertices int) *MutableGraph {
	return graph.NewMutable(numVertices)
}

// MutableFromGraph copies a frozen Graph into a MutableGraph so it can
// start taking updates.
func MutableFromGraph(g *Graph) *MutableGraph { return graph.MutableFromGraph(g) }

// ReadGraph parses the text edge-list format ("src label dst" lines with
// an optional "%vertices N" directive).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// WriteGraph serialises a graph in the text edge-list format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// Expr is a parsed regular path query.
type Expr = rpq.Expr

// ParseQuery parses the RPQ concrete syntax: labels, '.' (or '·' or '/')
// for concatenation, '|' for alternation, '+', '*', '?' postfix, 'ε',
// parentheses, and '^label' for inverse paths (traverse an edge
// backwards, as in SPARQL 1.1 property paths).
func ParseQuery(q string) (Expr, error) { return rpq.Parse(q) }

// MustParseQuery is ParseQuery but panics on error; for static queries.
func MustParseQuery(q string) Expr { return rpq.MustParse(q) }

// Pair is an ordered (start vertex, end vertex) result pair.
type Pair = pairs.Pair

// Result is the evaluation result of an RPQ: a set of ordered vertex
// pairs (Definition 2 of the paper).
type Result = pairs.Set

// Relation is an immutable, columnar evaluation result: pairs grouped
// by start vertex in sorted CSR runs, with a lazily built end-vertex
// transpose. Engine.EvaluateRel returns results in this form without
// materialising a hash set — the cheapest way to consume large results
// (iterate with Each/EachSrc, probe with Contains).
type Relation = pairs.Relation

// Strategy selects the multi-query evaluation method.
type Strategy = core.Strategy

const (
	// RTCSharing shares the reduced transitive closure (the paper's
	// contribution, Algorithms 1 and 2). This is the default.
	RTCSharing = core.RTCSharing
	// FullSharing shares the full closure R+_G (Abul-Basher, ICDE 2017).
	FullSharing = core.FullSharing
	// NoSharing evaluates each query independently by automaton-product
	// traversal (Yakovets et al., SIGMOD 2016).
	NoSharing = core.NoSharing
)

// Options configure an Engine. The zero value selects RTCSharing and
// the default DNF bound. Every clause is planned as the paper does:
// split at its rightmost outermost Kleene closure and join forward.
type Options = core.Options

// Stats is the engine's accumulated timing split: SharedData (computing
// the shared closure structure), PreJoin (the Pre_G ⋈ R+_G join) and
// Remainder, plus cache counters.
type Stats = core.Stats

// SharedSummary describes one cached shared structure: the sub-query R,
// the shared pair count, and the reduced-graph vertex counts.
type SharedSummary = core.SharedSummary

// Engine evaluates RPQs over one (updatable) graph, sharing closure
// structures across queries. It is safe for concurrent use: the shared
// structures live in a SharedCache (singleflight-deduplicated, so
// concurrent queries needing the same closure sub-query compute it
// once), and the per-engine accounting is lock-protected. Engine.Fork
// creates engines that share the receiver's cache;
// Engine.EvaluateBatchParallel fans a query batch over such forks.
//
// Engine.ApplyUpdates mutates the graph between (or concurrently with)
// query batches: it freezes a new graph version, advances the cache to
// a new epoch — carrying cached structures whose sub-queries mention no
// updated label and dropping the rest for recompute on demand — and
// atomically swaps the engine onto the new version.
// Running queries finish against the version they started on; a result
// always describes exactly one graph epoch.
type Engine = core.Engine

// GraphUpdate is one edge mutation for Engine.ApplyUpdates; build them
// with InsertEdge/DeleteEdge.
type GraphUpdate = core.GraphUpdate

// UpdateOp is the kind of a GraphUpdate.
type UpdateOp = core.UpdateOp

const (
	// OpInsertEdge adds a labeled edge (no-op if present).
	OpInsertEdge = core.OpInsertEdge
	// OpDeleteEdge removes a labeled edge (no-op if absent).
	OpDeleteEdge = core.OpDeleteEdge
)

// InsertEdge returns an insert update for Engine.ApplyUpdates.
func InsertEdge(src VID, label string, dst VID) GraphUpdate {
	return core.InsertEdge(src, label, dst)
}

// DeleteEdge returns a delete update for Engine.ApplyUpdates.
func DeleteEdge(src VID, label string, dst VID) GraphUpdate {
	return core.DeleteEdge(src, label, dst)
}

// UpdateResult reports what one ApplyUpdates batch did: the new graph
// epoch, the effective edge changes, and the carried/dropped fate of
// every cached structure and relation.
type UpdateResult = core.UpdateResult

// SharedCache holds the shared closure structures (the paper's RTCs and
// full closures) in one region and the sealed columnar sub-query and
// result relations in a second, budget-bounded region. Every entry is
// tagged with the graph epoch it was computed at; Engine.ApplyUpdates
// advances the epoch, and the access rules guarantee a value is never
// served across epochs. One cache may back any number of engines over
// the same graph and options; it is safe for concurrent use and
// deduplicates concurrent computations of the same sub-query. See
// DESIGN.md §5 for the concurrency model and §9 for epochs.
type SharedCache = core.SharedCache

// CacheCounters is a snapshot of a SharedCache's hit/miss counters.
// Misses equals the number of structures actually computed.
type CacheCounters = core.CacheCounters

// NewSharedCache returns an empty shared-structure cache for
// NewEngineWithCache.
func NewSharedCache() *SharedCache { return core.NewSharedCache() }

// Plan is the output of Engine.Explain / Engine.ExplainQuery: the DNF
// clauses, the execution per clause (the rightmost-closure batch unit
// joined through a shared structure, or the automaton product) with
// estimated cardinalities, and which shared structures are already
// cached.
// Explaining never executes or mutates anything;
// Engine.ExplainAnalyze / Engine.ExplainAnalyzeQuery additionally run
// the query and fill in the actual cardinalities.
type Plan = core.Plan

// PlanClause is one batch unit of a Plan.
type PlanClause = core.PlanClause

// NewEngine returns an engine over g with a private SharedCache.
func NewEngine(g *Graph, opts Options) *Engine { return core.New(g, opts) }

// NewEngineWithCache returns an engine over g backed by an existing
// SharedCache, so independently created engines (one per request
// goroutine, say) share closure structures. All engines on one cache
// must use the same graph and strategy.
func NewEngineWithCache(g *Graph, opts Options, cache *SharedCache) *Engine {
	return core.NewWithCache(g, opts, cache)
}

// EvaluateBatch is a one-shot convenience: parse a query batch and
// evaluate it with a fresh RTCSharing engine fanned over the given
// number of workers (workers ≤ 0 uses GOMAXPROCS). All workers share
// one cache, so each distinct closure sub-query is computed exactly
// once. Results are in input order.
func EvaluateBatch(g *Graph, queries []string, workers int) ([]*Result, error) {
	return NewEngine(g, Options{}).EvaluateQueriesParallel(queries, workers)
}

// Evaluate is a one-shot convenience: parse and evaluate a single query
// with a fresh RTCSharing engine.
func Evaluate(g *Graph, query string) (*Result, error) {
	return NewEngine(g, Options{}).EvaluateQuery(query)
}

// EvaluateParallel evaluates a single query by automaton-product
// traversal fanned out over worker goroutines (workers ≤ 0 uses
// GOMAXPROCS). Start vertices partition perfectly, so this scales close
// to linearly for traversal-bound queries. Unlike Evaluate it does not
// use closure sharing — it is the right tool for one-off queries on big
// graphs, while an Engine is the right tool for query batches.
func EvaluateParallel(g *Graph, query string, workers int) (*Result, error) {
	expr, err := rpq.Parse(query)
	if err != nil {
		return nil, err
	}
	return eval.New(g, expr, eval.Options{}).EvaluateAllParallel(workers), nil
}

// Server is the rpqd HTTP/JSON query service over one engine. A
// POST /query whose result is memoised at the current epoch is paged
// from the memo; any other query is evaluated on its own request under
// a bounded number of evaluation slots, pinned to one graph epoch.
// Unrelated clients share closure structures, and identical concurrent
// queries one evaluation, through the engine's cache. POST /update
// drives Engine.ApplyUpdates; GET /explain, /healthz and /metrics
// expose plans, liveness, cache counters and admission statistics. A
// Server is an http.Handler; create one with NewServer and serve it
// yourself, or use Serve for the whole lifecycle. See DESIGN.md §10.
type Server = server.Server

// ServerOptions configure a Server: admission control (concurrent
// evaluations, queued-request bound, per-request timeout), the
// persistent engine behind /update, and streaming delivery. The zero
// value gets the documented defaults.
type ServerOptions = server.Options

// ServerMetrics is the GET /metrics payload: the graph epoch and shape,
// the admission statistics, the shared-cache counters (including the
// CrossEpochHits tripwire), the engine's timing split, the latency
// histograms (ServerLatencyInfo) and the Go runtime vitals
// (ServerRuntimeInfo).
type ServerMetrics = server.Metrics

// StageTimer is the per-request latency breakdown a /query response
// carries (QueryResponse.Stages) and EvaluateRelTimed fills: one
// nanosecond counter per pipeline stage (queue, plan, closure-build,
// join, seal, page, other; coalesce-wait is always 0). The stages
// partition the request's wall time.
type StageTimer = core.StageTimer

// HistogramStats is one log-bucketed latency histogram as /metrics
// renders it: count, mean, interpolated p50/p90/p99 and exact max, in
// milliseconds.
type HistogramStats = server.HistogramStats

// StageHistograms is the per-stage section of the /metrics latency
// payload: one HistogramStats per StageTimer stage, counting only the
// requests in which that stage actually ran.
type StageHistograms = server.StageHistograms

// ServerLatencyInfo is the latency section of /metrics: the overall
// request-latency histogram, its split by serving path (fast_path,
// direct, ask, streamed, witness), the per-stage histograms, and the
// encode and first-chunk histograms.
type ServerLatencyInfo = server.LatencyInfo

// ServerRuntimeInfo is the runtime section of /metrics: goroutine
// count, heap in use, GC counters and the last GC pause — the vitals
// latency spikes are correlated against.
type ServerRuntimeInfo = server.RuntimeInfo

// AdmissionStats is the admission section of ServerMetrics: queries
// submitted, served from the memo or evaluated, rejected, abandoned,
// failed, panicked and quarantined.
type AdmissionStats = server.AdmissionStats

// ResultStream is a pull-based, epoch-pinned enumeration of one query's
// result, opened with Engine.OpenStream.
// It yields (src, dst) pairs in exactly the sealed relation's
// (src, dst) order without materialising the top-level relation: the
// shared inputs (reduced closures, sub-relations) resolve at open time
// against one immutable engine version, then Next joins one source
// vertex at a time into a caller-supplied buffer. Streams opened before
// an update keep answering at their pinned epoch; Close releases the
// stream's scratch back to the engine.
type ResultStream = core.ResultStream

// StreamOptions configures Engine.OpenStream; Limit caps the pairs the
// stream yields (0 = all), making ASK-with-budget and top-k prefixes
// one option away.
type StreamOptions = core.StreamOptions

// StreamStats is a stream's progress snapshot: sources joined, rows
// touched and pairs yielded so far.
type StreamStats = core.StreamStats

// ErrStreamClosed is returned by ResultStream.Next after Close.
var ErrStreamClosed = core.ErrStreamClosed

// WitnessPath is one shortest label-path witness for a result pair, as
// Engine.Witness reconstructs it: the endpoints, the edge labels in
// order (inverse traversals spelled "^label"), and the graph epoch it
// was derived at.
type WitnessPath = core.WitnessPath

// AskResponse is the body of the server's /query?ask=1 existence
// probe: found true/false plus the rows-scanned instrumentation of the
// short-circuit evaluator.
type AskResponse = server.AskResponse

// WitnessResponse is the body of the server's /query?witness=1 path:
// one shortest label-path witness, or found=false.
type WitnessResponse = server.WitnessResponse

// StreamingInfo is the streaming-delivery section of /metrics: streams
// opened, pairs streamed, ASK and witness requests, cursor resumes and
// epoch aborts (stale cursors plus lag-aborted streams).
type StreamingInfo = server.StreamingInfo

// NewServer returns the rpqd HTTP handler over engine. The engine may be
// shared with in-process users; updates through either side keep both
// epoch-consistent. Close the server to drain its in-flight queries.
func NewServer(engine *Engine, opts ServerOptions) *Server {
	return server.New(engine, opts)
}

// Serve listens on addr and serves the rpqd HTTP API over engine until
// ctx is cancelled, then shuts down gracefully: the listener closes,
// in-flight and queued requests finish, and nil is returned. A non-nil
// error is a listen or serve failure.
func Serve(ctx context.Context, addr string, engine *Engine, opts ServerOptions) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return ServeListener(ctx, l, engine, opts)
}

// ServeListener is Serve over an existing listener — the form that lets
// callers bind port 0 and read the chosen address back. The listener is
// closed when ServeListener returns.
func ServeListener(ctx context.Context, l net.Listener, engine *Engine, opts ServerOptions) error {
	srv := server.New(engine, opts)
	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := hs.Shutdown(shutCtx)
	srv.Close()
	return err
}

// RMATConfig parameterises the synthetic graph generator (the
// recursive-matrix model used by the paper's evaluation datasets).
type RMATConfig = datagen.RMATConfig

// GenerateRMAT draws a random edge-labeled multigraph from the RMAT
// distribution; see RMATConfig.
func GenerateRMAT(cfg RMATConfig) (*Graph, error) { return datagen.RMAT(cfg) }

// Store is a persistence backend for an engine's graph: one snapshot
// slot (the frozen graph at one epoch) plus an append-only, CRC-framed
// log of update batches. OpenStore returns the
// file-directory implementation; the interface keeps other backends
// pluggable.
type Store = store.Store

// StoreStats is a Store's size and activity bookkeeping: snapshot bytes
// and epoch, snapshots written, and the update-log record/byte counts
// since the last rotation. Served under /metrics when rpqd runs with
// -data.
type StoreStats = store.Stats

// PersistentEngine wraps an Engine so every effective update batch is
// durably logged (fsync) before ApplyUpdates returns, with snapshot
// compaction on demand (Snapshot) or automatically every N batches.
// Reads are the embedded Engine's own methods. Create one with
// OpenEngine.
type PersistentEngine = store.Persistent

// PersistOptions configures a PersistentEngine's automatic snapshot
// compaction.
type PersistOptions = store.Options

// RecoveryInfo describes how a PersistentEngine reached its boot state:
// whether a snapshot was loaded (and at which epoch), how many logged
// batches were replayed on top, the epoch reached, and the recovery
// wall-clock. Recovery restores the graph and epoch only; closure
// structures rebuild on first use.
type RecoveryInfo = store.RecoveryInfo

// SnapshotInfo describes one written snapshot: the graph epoch it
// pinned, its size in bytes, and the write's wall-clock. It is the
// POST /admin/snapshot response body.
type SnapshotInfo = store.SnapshotInfo

// PersistInfo is the persistence section of rpqd's /metrics: the store's
// bookkeeping, the automatic-snapshot position, and the RecoveryInfo of
// the boot.
type PersistInfo = store.PersistInfo

// ErrNoSnapshot is returned by Store.LoadSnapshot when the backend holds
// no snapshot yet — the cold-boot signal, distinct from a corrupt
// snapshot (a real error).
var ErrNoSnapshot = store.ErrNoSnapshot

// OpenStore opens (creating if needed) a file-directory Store rooted at
// dir: snapshot.bin plus wal.log, written with atomic rename + fsync. A
// torn log tail left by a crash is repaired on open.
func OpenStore(dir string) (Store, error) { return store.OpenDir(dir) }

// OpenEngine boots a PersistentEngine from s. With a resident snapshot,
// the engine starts over the snapshot's graph at its epoch and replays
// the update-log tail through the normal update path — the recovered
// graph and epoch are identical to never having stopped, and closure
// structures rebuild on first use. With an empty store this is a cold
// boot: seed must be non-nil and an initial snapshot is written to
// anchor the log. An unreadable snapshot is an error, never a cold boot.
func OpenEngine(s Store, seed *Graph, opts Options, popts PersistOptions) (*PersistentEngine, RecoveryInfo, error) {
	return store.Open(s, seed, opts, popts)
}

// ErrDegraded is returned by PersistentEngine.ApplyUpdates while the
// engine is in read-only degraded mode: a WAL append or snapshot commit
// failed, so accepting further mutations would let memory run ahead of
// what a restart recovers. Queries keep serving the last durable epoch;
// a successful PersistentEngine.Probe re-arms updates (rpqd probes
// automatically and answers 503 + Retry-After meanwhile).
var ErrDegraded = store.ErrDegraded

// ErrQuarantined is returned through /query (as HTTP 422) for a query
// string that repeatedly panicked the evaluator: the panic is recovered
// and isolated each time, but a string that keeps crashing is rejected
// at admission so one pathological input cannot crash-loop the daemon.
var ErrQuarantined = server.ErrQuarantined

// ErrInjected marks a failure manufactured by a FaultInjector; tests
// match on it with errors.Is to tell injected faults from real ones.
var ErrInjected = store.ErrInjected

// QueryPanicError reports a panic recovered during one query's
// evaluation: the query text, the panic value and the captured stack.
// Batch neighbours are unaffected; rpqd answers the panicking query
// with HTTP 500 and quarantines the string if it keeps crashing.
type QueryPanicError = core.QueryPanicError

// FaultOp identifies one class of file operation a FaultInjector can
// fail: FaultWrite, FaultSync or FaultRename.
type FaultOp = store.FaultOp

// The FaultOp kinds: data writes, fsyncs, and atomic-replace renames.
const (
	FaultWrite  = store.OpWrite
	FaultSync   = store.OpSync
	FaultRename = store.OpRename
)

// FaultInjector decides, deterministically from a seed, which store
// file operations fail — probabilistically (Arm), by countdown
// (FailNth), optionally tearing writes halfway (ShortWrites). Drive a
// NewFaultyStore or OpenStoreFaulty with one to exercise the
// degradation ladder; see DESIGN.md §13.
type FaultInjector = store.Injector

// NewFaultInjector returns an injector with no faults armed. A fixed
// seed and a fixed operation sequence reproduce the same fault pattern.
func NewFaultInjector(seed int64) *FaultInjector { return store.NewInjector(seed) }

// NewFaultyStore wraps any Store so its mutating operations (AppendBatch,
// WriteSnapshot, Probe) fail according to inj; reads pass through. Place
// it beneath OpenEngine to test how a deployment behaves when the disk
// misbehaves.
func NewFaultyStore(inner Store, inj *FaultInjector) Store { return store.NewFaulty(inner, inj) }

// OpenStoreFaulty is OpenStore with inj consulted at the directory
// backend's write/sync/rename sites, failing the real file operations
// themselves — the deeper seam, exercising atomic rotation and WAL
// tail-repair against real files (NewFaultyStore fails at the Store
// interface boundary instead).
func OpenStoreFaulty(dir string, inj *FaultInjector) (Store, error) {
	return store.OpenDirFaulty(dir, inj)
}
