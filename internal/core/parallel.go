package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// EvaluateBatchParallelRel evaluates a query batch across worker
// goroutines and returns the sealed results in input order, plus the
// graph epoch the whole batch was pinned to.
//
// Every worker runs its queries on one call of its own, all pinned to
// the graph version current when the batch starts, so even if
// ApplyUpdates lands mid-batch all results of one batch describe a
// single graph epoch. The workers share the engine's cache — each
// distinct closure sub-query is still computed once, the singleflight
// making racing workers wait instead of recompute — and account to its
// Stats. workers ≤ 0 uses GOMAXPROCS.
//
// The first error aborts the batch and is returned; queries already
// completed are discarded. A panic while evaluating one query is
// recovered into a *QueryPanicError and aborts the batch like any other
// error — the worker goroutine survives.
func (e *Engine) EvaluateBatchParallelRel(qs []rpq.Expr, workers int) ([]*pairs.Relation, uint64, error) {
	pinned := e.version()
	n := len(qs)
	if n == 0 {
		return nil, pinned.epoch, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	var (
		results = make([]*pairs.Relation, n)
		errs    = make([]error, workers)
		next    atomic.Int64
		aborted atomic.Bool
		wg      sync.WaitGroup
	)
	for w := range workers {
		c := &evalCall{engineVersion: pinned}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || aborted.Load() {
					return
				}
				rel, err := c.evaluateRecovered(qs[i])
				if err != nil {
					errs[w] = err
					aborted.Store(true)
					return
				}
				results[i] = rel
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, pinned.epoch, err
		}
	}
	return results, pinned.epoch, nil
}

// evaluateRecovered is evaluate with a panic recovered into a
// *QueryPanicError.
func (c *evalCall) evaluateRecovered(q rpq.Expr) (rel *pairs.Relation, err error) {
	defer recoverPanic(q, &err)
	return c.evaluate(q)
}
