package core

import (
	"context"
	"fmt"
	"runtime/debug"

	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/tc"
)

// This file is the engine half of the serving layer's end-to-end
// cancellation: a context attached to a private fork (the same
// single-writer discipline as StageTimer) and amortized checkpoints in
// the loops that dominate evaluation time — closure builds and
// batch-unit joins. A query whose client walked away stops consuming
// CPU within one checkpoint interval instead of running to completion.

// checkpointRows is the amortized cancellation interval: the context is
// polled once per this many rows of join or closure work. The budget
// keeps the hot-path cost of a checkpoint to a pointer load and an
// integer subtract in the common case, so the uncancelled path cannot
// measure it; the cancellation latency is bounded by the time one
// interval's rows take plus the largest uncheckpointed unit (a single
// automaton traversal).
const checkpointRows = 4096

// cancelState carries the cooperative-cancellation context of the
// evaluation running on this engine and its remaining row budget. Like
// an attached StageTimer it is only ever set on private forks — one
// evaluation at a time, written and read by that evaluation's single
// goroutine — so the budget needs no synchronisation.
type cancelState struct {
	ctx    context.Context
	budget int
}

// setCancel attaches (or, with nil, detaches) a cancellation context to
// this engine. Must only be used on private forks, before the
// evaluation starts, by the goroutine that will run it — the discipline
// EvaluateRelTimedCtx follows.
func (e *Engine) setCancel(ctx context.Context) {
	if ctx == nil {
		e.cancel = nil
		return
	}
	e.cancel = &cancelState{ctx: ctx, budget: checkpointRows}
}

// checkpoint spends n rows of the cancellation budget and polls the
// attached context when the budget runs out, returning its error to
// abort the evaluation. With no context attached (every evaluation not
// started by a Ctx entry point) it is a nil check.
func (sh *engineShared) checkpoint(n int) error {
	cs := sh.cancel
	if cs == nil {
		return nil
	}
	cs.budget -= n
	if cs.budget > 0 {
		return nil
	}
	cs.budget = checkpointRows
	return cs.ctx.Err()
}

// checkpointFn adapts the engine's checkpoint for the closure packages
// (tc, rtc); nil when no context is attached, so an uncancellable
// closure build pays nothing at all.
func (sh *engineShared) checkpointFn() tc.Checkpoint {
	if sh.cancel == nil {
		return nil
	}
	return sh.checkpoint
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
// the enclosing function's named error return. It must be deferred
// directly — recover only works when called by the deferred function
// itself, so wrapping it in another closure silently disables it:
//
//	defer recoverPanic(key, &err)
//
// When the deferred function also needs cleanup work, call recover
// yourself and hand the value to asPanicError instead.
func recoverPanic(query string, err *error) {
	if r := recover(); r != nil {
		*err = &QueryPanicError{Query: query, Value: r, Stack: debug.Stack()}
	}
}

// asPanicError folds an already-recovered panic value into the
// enclosing function's named error return. It is the form of
// recoverPanic for deferred closures that have cleanup of their own:
// they must call recover directly (a nested call would return nil and
// let the panic escape) and then delegate the conversion here.
func asPanicError(query string, r any, err *error) {
	if r != nil {
		*err = &QueryPanicError{Query: query, Value: r, Stack: debug.Stack()}
	}
}

// SetEvalHook installs a hook called with the canonical query text at
// the start of every EvaluateRel-pipeline or ExplainAnalyze evaluation
// on this engine and every fork created afterwards. It exists for fault injection: the
// chaos tests and the panic-isolation storm make the hook panic for
// chosen query strings to prove the recovery and quarantine machinery.
// Install before the engine starts serving; the hook is copied, not
// synchronised.
func (e *Engine) SetEvalHook(hook func(query string)) {
	e.evalHook = hook
}

// EvaluateRelTimedCtx is EvaluateRelTimed with cooperative
// cancellation: the evaluation runs on a private fork with ctx attached,
// aborting at the next checkpoint once ctx is done. Either ctx or st
// may be nil. Panics during the evaluation are recovered into a
// *QueryPanicError, so a /query that crashes the evaluator fails alone.
// This is the serving layer's cold-query entry point.
func (e *Engine) EvaluateRelTimedCtx(ctx context.Context, q rpq.Expr, st *StageTimer) (rel *pairs.Relation, epoch uint64, err error) {
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, e.Epoch(), cerr
		}
	}
	worker := e.Fork()
	worker.setCancel(ctx)
	worker.setStages(st)
	defer func() {
		r := recover()
		worker.setStages(nil)
		e.absorb(worker)
		asPanicError(q.String(), r, &err)
	}()
	rel, epoch, err = worker.EvaluateRelEpoch(q)
	return rel, epoch, err
}
