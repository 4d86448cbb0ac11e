package core

import (
	"context"
	"fmt"
	"runtime/debug"

	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// This file is the engine half of the serving layer's end-to-end
// cancellation: a context carried by the call it cancels (evalCall, one
// goroutine at a time, so its budget needs no synchronisation) and
// amortized checkpoints in the loops that dominate evaluation time —
// closure builds and batch-unit joins. A query whose client walked away
// stops consuming CPU within one checkpoint interval instead of running
// to completion.

// checkpointRows is the amortized cancellation interval: the context is
// polled once per this many rows of join or closure work. The budget
// keeps the hot-path cost of a checkpoint to a pointer load and an
// integer subtract in the common case, so the uncancelled path cannot
// measure it; the cancellation latency is bounded by the time one
// interval's rows take plus the largest uncheckpointed unit (a single
// automaton traversal).
const checkpointRows = 4096

// checkpoint spends n rows of the call's cancellation budget and polls
// its context when the budget runs out, returning the context's error to
// abort the evaluation. The rows past the budget count towards the next
// interval, so calls of fewer than checkpointRows rows poll exactly once
// per checkpointRows; a larger call polls once. With no context attached
// (every call not started by a Ctx entry point or a stream) it is a nil
// check.
func (c *evalCall) checkpoint(n int) error {
	if c.ctx == nil {
		return nil
	}
	c.budget -= n
	if c.budget > 0 {
		return nil
	}
	c.budget = checkpointRows + c.budget%checkpointRows
	return c.ctx.Err()
}

// checkpointFn adapts the call's checkpoint for the structure builds
// (rtc.FromProduct, tc.BFSCheck); nil when no context is attached, so an
// uncancellable build pays nothing at all.
func (c *evalCall) checkpointFn() func(rows int) error {
	if c.ctx == nil {
		return nil
	}
	return c.checkpoint
}

// QueryPanicError reports a panic recovered during the evaluation of a
// single query. The batch evaluators and the singleflight compute
// boundaries convert panics into this error so one pathological query
// poisons only its own result — never the worker goroutine, the
// request's handler, or a co-waiter parked on the same in-flight
// structure.
// The serving layer uses Query to quarantine the offending input.
type QueryPanicError struct {
	// Query is the canonical text of the query (or sub-query) whose
	// evaluation panicked.
	Query string
	// Value is the recovered panic value.
	Value any
	// Stack is the stack trace captured at recovery.
	Stack []byte
}

// Error implements the error interface.
func (e *QueryPanicError) Error() string {
	return fmt.Sprintf("core: panic evaluating %q: %v", e.Query, e.Value)
}

// recoverPanic converts an in-flight panic into a *QueryPanicError via
// the enclosing function's named error return; q's text is built only
// when there is a panic. It must be deferred directly — recover only
// works when called by the deferred function itself, so wrapping it in
// another closure silently disables it:
//
//	defer recoverPanic(q, &err)
//
// When the deferred function also needs cleanup work, call recover
// yourself and hand the value to asPanicError instead.
func recoverPanic(q rpq.Expr, err *error) {
	if r := recover(); r != nil {
		*err = &QueryPanicError{Query: q.String(), Value: r, Stack: debug.Stack()}
	}
}

// asPanicError folds an already-recovered panic value into the
// enclosing function's named error return. It is the form of
// recoverPanic for deferred closures that have cleanup of their own:
// they must call recover directly (a nested call would return nil and
// let the panic escape) and then delegate the conversion here.
func asPanicError(q rpq.Expr, r any, err *error) {
	if r != nil {
		*err = &QueryPanicError{Query: q.String(), Value: r, Stack: debug.Stack()}
	}
}

// SetEvalHook installs a hook called with the canonical query text at
// the start of every EvaluateRel-pipeline or ExplainAnalyze evaluation
// and every cold stream on this engine. It exists for fault injection: the chaos tests and
// the panic-isolation storm make the hook panic for chosen query
// strings to prove the recovery and quarantine machinery. Install
// before the engine starts serving; the hook is not synchronised.
func (e *Engine) SetEvalHook(hook func(query string)) {
	e.evalHook = hook
}

// EvaluateRelTimedCtx is EvaluateRelEpoch with per-stage attribution
// into st and cooperative cancellation: the call carries ctx and st —
// so the timer and the context have exactly one writer, and st receives
// the call's stage record once, when it returns — and aborts at the
// next checkpoint once ctx is done. Either ctx or st may be nil.
// Panics during the evaluation are recovered into a *QueryPanicError, so
// a /query that crashes the evaluator fails alone. This is the serving
// layer's cold-query entry point.
func (e *Engine) EvaluateRelTimedCtx(ctx context.Context, q rpq.Expr, st *StageTimer) (rel *pairs.Relation, epoch uint64, err error) {
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, e.Epoch(), cerr
		}
	}
	defer recoverPanic(q, &err)
	c := e.call(ctx, st)
	rel, err = c.evaluate(q)
	return rel, c.epoch, err
}
