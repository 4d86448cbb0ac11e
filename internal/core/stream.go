package core

import (
	"context"
	"errors"

	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// This file is the enumeration-grade delivery layer: a pull-based result
// stream that yields (src, dst) pairs in exactly the order a sealed
// relation would hold them — per-source ascending, each source's
// destination run sorted and duplicate-free — without ever sealing the
// full top-level relation. The clauses' inputs resolve through the same
// caches as sealed evaluation, at stream-open time, and each clause's
// per-source producer (batchunit.go) — the one the sealed driver drains
// — is pulled one source vertex at a time, so the peak working set is
// one source's run plus the producers' pooled state instead of the whole
// answer. ASK is this stream stopped at its first pair.
//
// Determinism is the load-bearing property: a stream, a sealed
// evaluation and a cursor-resumed page over the same graph epoch must
// agree pair-for-pair, prefix included. The per-source pull gives that
// for free — the sealed relation holds the same set grouped by ascending
// source, and the stream ORs every clause's destinations for a source
// through the union producer the sealed path drains, into one reusable
// vertex bitset (the dedup), and pops them in ascending bit order (the
// sort) — which the differential streaming suite enforces across
// strategies.

// ErrStreamClosed is returned by Next after Close.
var ErrStreamClosed = errors.New("core: result stream closed")

// StreamOptions configure OpenStream.
type StreamOptions struct {
	// Limit, when positive, stops the stream after that many pairs —
	// exactly the first Limit pairs of the sealed (src, dst) order, so a
	// LIMIT k response is a prefix of the full answer.
	Limit int
}

// StreamStats is the instrumentation counter set of one stream or ASK
// probe: how much work the short-circuit modes actually did. Rows
// counts join/traversal tuples touched; Sources counts source vertices
// whose runs were produced; Pairs counts pairs handed to the caller.
type StreamStats struct {
	Sources int64
	Rows    int64
	Pairs   int64
}

// ResultStream enumerates one query's result in deterministic sealed
// order. It is pinned to the graph epoch current at OpenStream: it owns
// its call until Close, and the engine version the call pinned is
// immutable, so concurrent ApplyUpdates never perturb an open stream.
// Not safe for concurrent use; the goroutine that opened it must drive
// Next and Close.
type ResultStream struct {
	c     *evalCall // nil for a memo-warm stream, and after Close
	epoch uint64
	query rpq.Expr

	limit int

	// sealed, when non-nil, backs the stream with an already-sealed
	// relation (the memo-warm fast path) instead of the producers.
	sealed    *pairs.Relation
	sealedPos int

	// src ORs every clause's producer per source; acc holds the
	// undelivered rest of source curSrc's run.
	src     union
	acc     *pairs.RunAccumulator
	nextSrc int
	curSrc  graph.VID

	stats  StreamStats
	done   bool
	closed bool
	err    error
}

// OpenStream opens a pull-based stream over the result of q, pinned to
// the engine's current graph epoch. All shared inputs — sub-relations,
// closure structures, compiled evaluators — are resolved before
// OpenStream returns (through the same caches sealed evaluation uses),
// so Next touches only immutable version-local state: a caller may
// drop any lock that guarded the open before draining the stream.
//
// A memo-warm query streams from its cached sealed relation; everything
// else streams live: every clause's producer is pulled one source vertex
// at a time, with a cancellation checkpoint per source run.
func (e *Engine) OpenStream(ctx context.Context, q rpq.Expr, opts StreamOptions) (rs *ResultStream, err error) {
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
	}
	if rel, epoch, ok := e.CachedResult(q); ok {
		return &ResultStream{sealed: rel, epoch: epoch, query: q, limit: opts.Limit}, nil
	}

	defer recoverPanic(q, &err)
	// Stats see the query and what the open resolves, never the joins of
	// the pulls.
	c := e.call(ctx, nil)
	defer c.fold()
	c.begin(q)
	s := &ResultStream{c: c, epoch: c.epoch, query: q, limit: opts.Limit, src: union{c: c}}
	if oerr := s.open(q); oerr != nil {
		s.release()
		return nil, oerr
	}
	return s, nil
}

// open plans q and resolves every clause's inputs eagerly.
func (s *ResultStream) open(q rpq.Expr) error {
	c := s.c
	clauses, err := rpq.ToDNF(q)
	if err != nil {
		return err
	}
	qp := c.planner().Plan(q, clauses)
	s.acc = pairs.NewRunAccumulator(c.g.NumVertices())
	// A stream with a Limit may stop inside any source, so its pair-level
	// producers join one source at a time.
	width := fullBatch
	if s.limit > 0 {
		width = 1
	}
	for i := range qp.Clauses {
		p, _, err := c.openClause(&qp.Clauses[i], width)
		if err != nil {
			return err
		}
		s.src.parts = append(s.src.parts, p)
	}
	return nil
}

// Epoch returns the graph epoch the stream is pinned to.
func (s *ResultStream) Epoch() uint64 { return s.epoch }

// Stats returns the stream's work counters so far.
func (s *ResultStream) Stats() StreamStats { return s.stats }

// Next fills buf with the next pairs of the sealed (src, dst) order and
// reports how many were written plus whether the stream is exhausted.
// It may return n > 0 together with done. After an error (cancellation,
// or a recovered evaluation panic) the stream is dead: the same error
// returns on every subsequent call.
func (s *ResultStream) Next(buf []pairs.Pair) (n int, done bool, err error) {
	if s.closed {
		return 0, true, ErrStreamClosed
	}
	if s.err != nil {
		return 0, true, s.err
	}
	if s.done {
		return 0, true, nil
	}
	defer func() {
		if r := recover(); r != nil {
			asPanicError(s.query, r, &s.err)
			n, done, err = 0, true, s.err
		}
	}()

	if s.sealed != nil {
		return s.nextSealed(buf)
	}

	if s.limit > 0 {
		if left := int64(s.limit) - s.stats.Pairs; left < int64(len(buf)) {
			buf = buf[:left]
		}
	}
	for n < len(buf) {
		if s.acc.Empty() {
			if err := s.fillRun(); err != nil {
				s.err = err
				return n, true, err
			}
			if s.done {
				return n, true, nil
			}
		}
		k := s.acc.Drain(s.curSrc, buf[n:])
		n += k
		s.stats.Pairs += int64(k)
	}
	s.done = (s.limit > 0 && s.stats.Pairs >= int64(s.limit)) ||
		(s.acc.Empty() && s.nextSrc >= s.c.g.NumVertices())
	return n, s.done, nil
}

// nextSealed pages through the backing sealed relation.
func (s *ResultStream) nextSealed(buf []pairs.Pair) (int, bool, error) {
	remaining := s.sealed.Len() - s.sealedPos
	if s.limit > 0 {
		if left := s.limit - int(s.stats.Pairs); left < remaining {
			remaining = left
		}
	}
	if remaining <= 0 {
		s.done = true
		return 0, true, nil
	}
	want := len(buf)
	if want > remaining {
		want = remaining
	}
	n := s.sealed.PageInto(s.sealedPos, buf[:want])
	s.sealedPos += n
	s.stats.Pairs += int64(n)
	s.done = s.sealedPos >= s.sealed.Len() ||
		(s.limit > 0 && s.stats.Pairs >= int64(s.limit))
	return n, s.done, nil
}

// fillRun advances to the next source vertex with a non-empty merged
// run and leaves that run in s.acc — one sealed CSR run, built without
// sealing. Sets s.done when sources are exhausted.
func (s *ResultStream) fillRun() error {
	numV := s.c.g.NumVertices()
	for s.nextSrc < numV {
		vi := graph.VID(s.nextSrc)
		s.nextSrc++
		rows, err := s.src.produce(vi, s.acc)
		s.stats.Rows += rows
		if err != nil {
			return err
		}
		if !s.acc.Empty() {
			s.curSrc = vi
			s.stats.Sources++
			return nil
		}
	}
	s.done = true
	return nil
}

// Close releases the stream's pooled resources and its call. Idempotent;
// Next after Close returns ErrStreamClosed.
func (s *ResultStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.release()
}

func (s *ResultStream) release() {
	s.src.release()
	s.c = nil
}

// AskCounted reports whether the result of q is non-empty, stopping the
// moment the first pair is found, with the epoch it answered at and the
// rows it scanned. ASK is a stream stopped at its first pair: a LIMIT 1
// stream and one Next, so the probe stops within one source's run of the
// first hit and rows — the stream's Stats().Rows — stays far below the
// full evaluation's row count on any non-trivial answer. A memo hit
// scans 0 rows.
func (e *Engine) AskCounted(ctx context.Context, q rpq.Expr) (found bool, epoch uint64, rows int64, err error) {
	s, err := e.OpenStream(ctx, q, StreamOptions{Limit: 1})
	if err != nil {
		return false, e.Epoch(), 0, err
	}
	defer s.Close()
	var first [1]pairs.Pair
	n, _, err := s.Next(first[:])
	return n > 0, s.Epoch(), s.Stats().Rows, err
}
