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
// share a closure sub-query R+, this library builds R's reduced
// transitive closure once and shares it across all of them (the paper's
// RTCSharing algorithm). The RTC is the strongly connected components of
// the graph whose edges are R's paths, plus the reachability between
// them; it is read off the product of the graph with R's automaton, so
// R's own result is never materialised. Each query then joins its prefix
// through the RTC one component at a time. The FullSharing and
// NoSharing baselines from the paper's evaluation are included for
// comparison.
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
//	if err != nil {
//		log.Fatal(err)
//	}
//	for _, p := range res.Page(0, 10) { // the first 10 pairs in (src, dst) order
//		fmt.Println(p.Src, p.Dst)
//	}
//
// Every evaluation answers with a sealed Relation. Evaluate queries one
// call at a time, from as many goroutines as you like: the engine's
// cache shares closure structures across all of them.
//
// OpenStore and OpenEngine make an engine's graph durable: a snapshot
// plus a write-ahead log of update batches in one directory, from which
// a restart recovers exactly the epoch clients last observed.
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

// NewGraphBuilder returns a builder for a graph with the given number of
// vertices.
func NewGraphBuilder(numVertices int) *GraphBuilder {
	return graph.NewBuilder(numVertices)
}

// ReadGraph parses the text edge-list format ("src label dst" lines with
// an optional "%vertices N" directive).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// Expr is a parsed regular path query.
type Expr = rpq.Expr

// ParseQuery parses the RPQ concrete syntax: labels, '.' (or '·' or '/')
// for concatenation, '|' for alternation, '+', '*', '?' postfix, 'ε',
// parentheses, and '^label' for inverse paths (traverse an edge
// backwards, as in SPARQL 1.1 property paths).
func ParseQuery(q string) (Expr, error) { return rpq.Parse(q) }

// Pair is an ordered (start vertex, end vertex) result pair.
type Pair = pairs.Pair

// Relation is the result of every evaluation: an immutable set of
// ordered vertex pairs (Definition 2 of the paper), stored columnar —
// grouped by start vertex in sorted CSR runs, with a lazily built
// end-vertex transpose. Iterate with Each/EachSrc, page with Page, probe
// with Contains.
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

// Options configure an Engine; the zero value selects RTCSharing. Every
// clause is planned as the paper does: split at its rightmost outermost
// Kleene closure and join forward. A query whose disjunctive normal form
// exceeds 4,096 clauses is rejected with an error.
type Options = core.Options

// Engine evaluates RPQs over one (updatable) graph, sharing closure
// structures across queries. It is safe for concurrent use: every call
// shares the engine's own cache, in which concurrent queries needing
// the same closure sub-query compute it once, and the engine's
// accounting is lock-protected.
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

// InsertEdge returns an insert update for Engine.ApplyUpdates.
func InsertEdge(src VID, label string, dst VID) GraphUpdate {
	return core.InsertEdge(src, label, dst)
}

// DeleteEdge returns a delete update for Engine.ApplyUpdates.
func DeleteEdge(src VID, label string, dst VID) GraphUpdate {
	return core.DeleteEdge(src, label, dst)
}

// NewEngine returns an engine over g with an empty cache of its own.
func NewEngine(g *Graph, opts Options) *Engine { return core.New(g, opts) }

// Evaluate is a one-shot convenience: parse and evaluate a single query
// with a fresh RTCSharing engine.
func Evaluate(g *Graph, query string) (*Relation, error) {
	return NewEngine(g, Options{}).EvaluateQuery(query)
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

// ErrStreamClosed is returned by ResultStream.Next after Close.
var ErrStreamClosed = core.ErrStreamClosed

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

// Store is the persistence directory of an engine's graph: one snapshot
// file (the frozen graph at one epoch) plus an append-only, CRC-framed
// log of update batches, written with atomic rename + fsync. Open one
// with OpenStore.
type Store = store.Dir

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

// ErrNoSnapshot is returned by Store.LoadSnapshot when the directory
// holds no snapshot yet — the cold-boot signal, distinct from a corrupt
// snapshot (a real error).
var ErrNoSnapshot = store.ErrNoSnapshot

// OpenStore opens (creating if needed) the Store rooted at dir:
// snapshot.bin plus wal.log. A torn log tail left by a crash is
// repaired on open.
func OpenStore(dir string) (*Store, error) { return store.OpenDir(dir) }

// OpenEngine boots a PersistentEngine from s. With a resident snapshot,
// the engine starts over the snapshot's graph at its epoch and replays
// the update-log tail through the normal update path — the recovered
// graph and epoch are identical to never having stopped, and closure
// structures rebuild on first use. With an empty store this is a cold
// boot: seed must be non-nil and an initial snapshot is written to
// anchor the log. An unreadable snapshot is an error, never a cold boot.
func OpenEngine(s *Store, seed *Graph, opts Options, popts PersistOptions) (*PersistentEngine, RecoveryInfo, error) {
	return store.Open(s, seed, opts, popts)
}

// ErrDegraded is returned by PersistentEngine.ApplyUpdates while the
// engine is in read-only degraded mode: a WAL append or snapshot commit
// failed, so accepting further mutations would let memory run ahead of
// what a restart recovers. Queries keep serving the last durable epoch;
// a successful PersistentEngine.Probe re-arms updates (rpqd probes
// automatically and answers 503 + Retry-After meanwhile).
var ErrDegraded = store.ErrDegraded

// QueryPanicError reports a panic recovered during one query's
// evaluation: the query text, the panic value and the captured stack.
// Batch neighbours are unaffected; rpqd answers the panicking query
// with HTTP 500 and quarantines the string if it keeps crashing.
type QueryPanicError = core.QueryPanicError
