package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// EvaluateBatchParallel evaluates a query batch across worker
// goroutines, sharing one SharedCache: the parallel form of the paper's
// multiple-RPQ evaluation. Each worker is a Fork of the receiver, so the
// closure structures (RTCs for RTCSharing, full closures for
// FullSharing) are computed once per distinct sub-query R no matter how
// many workers race to need them — the singleflight in the cache makes
// the losers wait instead of recompute. Per-worker Stats accumulate
// privately and are folded into the receiver's Stats before the call
// returns, so the timing split and cache counters aggregate the whole
// batch race-free.
//
// Results are returned in input order. workers ≤ 0 uses GOMAXPROCS;
// one worker (or a one-query batch) degenerates to EvaluateSet. The
// first error aborts the batch and is returned; queries already
// completed are discarded.
//
// For NoSharing the workers share nothing, by definition of the
// baseline — the batch still parallelises, each worker paying the full
// per-query cost, which is exactly the NoSharing wall-clock a fair
// comparison needs.
//
// The whole batch is pinned to the graph version current when the call
// starts: every worker forks onto that one version, so even if
// ApplyUpdates lands mid-batch, all results of one call describe a
// single graph epoch (the -race update stress test asserts exactly
// this).
func (e *Engine) EvaluateBatchParallel(qs []rpq.Expr, workers int) ([]*pairs.Set, error) {
	results, _, err := evalBatchPinned(e, qs, workers, (*Engine).Evaluate)
	return results, err
}

// EvaluateBatchParallelRel is EvaluateBatchParallel in the executor's
// native sealed form, additionally returning the graph epoch the whole
// batch was pinned to: all results of one call describe a single graph
// version.
func (e *Engine) EvaluateBatchParallelRel(qs []rpq.Expr, workers int) ([]*pairs.Relation, uint64, error) {
	return evalBatchPinned(e, qs, workers, (*Engine).EvaluateRel)
}

// evalBatchPinned is the shared skeleton of the parallel batch
// evaluators: pin one graph version, fan the queries over forked
// workers (each fork pinned to that version), fold the workers' Stats
// back into the receiver, and return the results in input order plus
// the pinned epoch. A panic while evaluating one query is recovered
// into a *QueryPanicError and aborts the batch like any other error —
// the worker goroutine survives.
func evalBatchPinned[T any](e *Engine, qs []rpq.Expr, workers int, eval func(*Engine, rpq.Expr) (T, error)) ([]T, uint64, error) {
	n := len(qs)
	pinned := e.version()
	if n == 0 {
		return nil, pinned.epoch, nil
	}
	evalOne := func(worker *Engine, i int) (res T, err error) {
		defer recoverPanic(qs[i].String(), &err)
		return eval(worker, qs[i])
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Serial fallback, still pinned to one version via a fork.
		worker := e.forkVersion(pinned)
		out := make([]T, n)
		for i := range qs {
			res, err := evalOne(worker, i)
			if err != nil {
				e.absorb(worker)
				return nil, pinned.epoch, err
			}
			out[i] = res
		}
		e.absorb(worker)
		return out, pinned.epoch, nil
	}

	var (
		results = make([]T, n)
		errs    = make([]error, workers)
		engines = make([]*Engine, workers)
		next    atomic.Int64
		aborted atomic.Bool
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		engines[w] = e.forkVersion(pinned)
		wg.Add(1)
		go func(w int, worker *Engine) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || aborted.Load() {
					return
				}
				res, err := evalOne(worker, i)
				if err != nil {
					errs[w] = err
					aborted.Store(true)
					return
				}
				results[i] = res
			}
		}(w, engines[w])
	}
	wg.Wait()

	for _, worker := range engines {
		e.absorb(worker)
	}
	for _, err := range errs {
		if err != nil {
			return nil, pinned.epoch, err
		}
	}
	return results, pinned.epoch, nil
}

// EvaluateQueriesParallel parses a query batch and evaluates it with
// EvaluateBatchParallel.
func (e *Engine) EvaluateQueriesParallel(queries []string, workers int) ([]*pairs.Set, error) {
	qs := make([]rpq.Expr, len(queries))
	for i, q := range queries {
		expr, err := rpq.Parse(q)
		if err != nil {
			return nil, err
		}
		qs[i] = expr
	}
	return e.EvaluateBatchParallel(qs, workers)
}

// absorb folds a finished worker's stats and summaries into e.
func (e *Engine) absorb(worker *Engine) {
	worker.mu.Lock()
	ws := worker.stats
	wsum := worker.summaries
	worker.mu.Unlock()

	e.mu.Lock()
	e.stats.Add(ws)
	for k, s := range wsum {
		e.summaries[k] = s
	}
	e.mu.Unlock()
}
