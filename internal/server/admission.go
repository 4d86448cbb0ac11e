package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// Sentinel errors of the admission path. Handlers map them to HTTP 503.
var (
	// ErrShuttingDown rejects queries submitted after Close.
	ErrShuttingDown = errors.New("server: shutting down")
	// ErrOverloaded rejects a cold query when every evaluation slot is
	// busy and MaxQueued requests already wait for one — the backstop
	// that keeps an overload from growing an unbounded queue.
	ErrOverloaded = errors.New("server: overloaded, retry later")
)

// result is what admission hands the /query handler: the sealed
// relation and the graph epoch it was evaluated at (or the error), plus
// the request's stage breakdown and the serving path it took.
type result struct {
	rel    *pairs.Relation
	epoch  uint64
	err    error
	stages core.StageTimer
	path   resultPath
}

// admission serves a /query in one of two ways. A memo hit
// (Engine.CachedResult) answers at once and takes no slot. Any other
// query evaluates on the request's own goroutine, under the request's
// own context, holding one of MaxInFlight slots; at most MaxQueued
// requests wait for a slot, and the rest are shed with ErrOverloaded.
//
// Concurrent identical cold queries still run one evaluation: the
// engine's SharedCache singleflights every closure structure and every
// top-level result, and a waiter never inherits the cancellation of
// the request that computes. GET /explain?analyze=1 executes its query
// too, so it passes the same gate (analyze) and shares the slots.
type admission struct {
	engine    *core.Engine
	slots     chan struct{}
	maxQueued int64
	waiting   atomic.Int64

	// quar tracks query strings that panicked the evaluator; blocked
	// ones are rejected up front with ErrQuarantined.
	quar *quarantine

	// closed rejects new queries once close has begun; inFlight counts
	// the admitted cold queries, running or queued, that close waits
	// for. mu orders admission against close, so no query is admitted
	// once close has started waiting.
	mu       sync.Mutex
	closed   atomic.Bool
	inFlight sync.WaitGroup

	// Counters behind AdmissionStats, all atomic.
	submitted, fastPathHits, direct atomic.Int64
	rejected, abandoned, evalErrors atomic.Int64
	panics, quarantineRejected      atomic.Int64
}

func newAdmission(engine *core.Engine, opts Options) *admission {
	return &admission{
		engine:    engine,
		slots:     make(chan struct{}, opts.MaxInFlight),
		maxQueued: int64(opts.MaxQueued),
		quar:      newQuarantine(),
	}
}

// submit serves one parsed query. key must be the query string the
// request carried — the quarantine's identity.
func (a *admission) submit(ctx context.Context, key string, expr rpq.Expr) result {
	a.submitted.Add(1)
	if err := a.check(ctx, key); err != nil {
		return result{err: err}
	}
	if rel, epoch, ok := a.engine.CachedResult(expr); ok {
		a.fastPathHits.Add(1)
		return result{rel: rel, epoch: epoch, path: pathFastPath}
	}
	res := result{path: pathDirect}
	res.err = a.run(ctx, key, &res.stages, func() (err error) {
		a.direct.Add(1)
		res.rel, res.epoch, err = a.engine.EvaluateRelTimedCtx(ctx, expr, &res.stages)
		return err
	})
	return res
}

// analyze runs an EXPLAIN ANALYZE of expr through the same gate as a
// cold query: it holds an evaluation slot, runs under ctx, and a panic
// counts toward key's quarantine.
func (a *admission) analyze(ctx context.Context, key string, expr rpq.Expr) (plan *core.Plan, err error) {
	if err := a.check(ctx, key); err != nil {
		return nil, err
	}
	err = a.run(ctx, key, &core.StageTimer{}, func() (err error) {
		plan, err = a.engine.ExplainAnalyzeCtx(ctx, expr)
		return err
	})
	return plan, err
}

// check refuses a request up front: one whose context is already done
// (client gone, or the deadline burned up in handler parsing) must not
// take a slot — nobody would read the result — and neither may one that
// arrives after close or carries a quarantined query string.
func (a *admission) check(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		a.abandoned.Add(1)
		return err
	}
	if a.closed.Load() {
		a.rejected.Add(1)
		return ErrShuttingDown
	}
	if a.quar.blocked(key) {
		a.quarantineRejected.Add(1)
		return ErrQuarantined
	}
	return nil
}

// run admits one evaluation, waits for a slot (the wait lands in st's
// queue stage), runs eval holding it, and classifies
// eval's error: an abandonment, or an evaluation error whose recovered
// panic counts toward key's quarantine.
func (a *admission) run(ctx context.Context, key string, st *core.StageTimer, eval func() error) error {
	if !a.enter() {
		a.rejected.Add(1)
		return ErrShuttingDown
	}
	defer a.inFlight.Done()
	if err := a.acquire(ctx, st); err != nil {
		return err
	}
	defer func() { <-a.slots }()
	err := eval()
	switch {
	case err == nil:
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		a.abandoned.Add(1)
	default:
		a.evalErrors.Add(1)
		var pe *core.QueryPanicError
		if errors.As(err, &pe) {
			a.panics.Add(1)
			a.quar.note(key)
		}
	}
	return err
}

// enter admits one cold query, unless close has begun.
func (a *admission) enter() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed.Load() {
		return false
	}
	a.inFlight.Add(1)
	return true
}

// acquire takes an evaluation slot, waiting for one if every slot is
// busy and fewer than MaxQueued requests already wait. The wait is the
// request's queue stage.
func (a *admission) acquire(ctx context.Context, st *core.StageTimer) error {
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	defer a.waiting.Add(-1)
	if a.waiting.Add(1) > a.maxQueued {
		a.rejected.Add(1)
		return ErrOverloaded
	}
	start := time.Now()
	select {
	case a.slots <- struct{}{}:
		st.QueueNS = time.Since(start).Nanoseconds()
		return nil
	case <-ctx.Done():
		a.abandoned.Add(1)
		return ctx.Err()
	}
}

// close rejects new queries and waits until every admitted cold query
// has answered. Memo hits already past their closed check finish on
// their own; they hold nothing.
func (a *admission) close() {
	a.mu.Lock()
	a.closed.Store(true)
	a.mu.Unlock()
	a.inFlight.Wait()
}

// AdmissionStats is a snapshot of how /query requests were admitted —
// the /metrics view of the two serving paths and of what was refused.
type AdmissionStats struct {
	// Submitted counts every /query that reached admission;
	// FastPathHits the ones answered from the epoch-tagged result memo;
	// Direct the cold ones evaluated on their own request.
	Submitted    int64 `json:"submitted"`
	FastPathHits int64 `json:"fast_path_hits"`
	Direct       int64 `json:"direct"`

	// The counters below also cover /explain?analyze=1, which passes
	// the same gate. Rejected counts queries shed with 503 (overload or
	// shutdown); Abandoned counts requests whose context ended before
	// their answer — refused with an already-expired context, timed out
	// in the queue, or cancelled mid-evaluation; EvalErrors counts failed
	// evaluations, Panics the recovered evaluator panics among them.
	Rejected   int64 `json:"rejected"`
	Abandoned  int64 `json:"abandoned"`
	EvalErrors int64 `json:"eval_errors"`
	Panics     int64 `json:"panics"`

	// QuarantineRejected counts queries refused up front because their
	// string is quarantined; QuarantineSize is how many crashed strings
	// are currently tracked.
	QuarantineRejected int64 `json:"quarantine_rejected"`
	QuarantineSize     int64 `json:"quarantine_size"`
}

// stats snapshots the counters.
func (a *admission) stats() AdmissionStats {
	return AdmissionStats{
		Submitted:          a.submitted.Load(),
		FastPathHits:       a.fastPathHits.Load(),
		Direct:             a.direct.Load(),
		Rejected:           a.rejected.Load(),
		Abandoned:          a.abandoned.Load(),
		EvalErrors:         a.evalErrors.Load(),
		Panics:             a.panics.Load(),
		QuarantineRejected: a.quarantineRejected.Load(),
		QuarantineSize:     int64(a.quar.size()),
	}
}
