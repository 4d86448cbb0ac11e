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
// Every worker is a fork of the receiver pinned to the graph version
// current when the call starts, so even if ApplyUpdates lands mid-batch
// all results of one call describe a single graph epoch. The forks share
// the receiver's cache — each distinct closure sub-query is still
// computed once, the singleflight making racing workers wait instead of
// recompute — and fold their Stats back into the receiver before the
// call returns. workers ≤ 0 uses GOMAXPROCS.
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
		worker := e.forkVersion(pinned)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer e.absorb(worker)
			for {
				i := int(next.Add(1)) - 1
				if i >= n || aborted.Load() {
					return
				}
				rel, err := evaluateRecovered(worker, qs[i])
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

// evaluateRecovered is EvaluateRel with a panic recovered into a
// *QueryPanicError.
func evaluateRecovered(worker *Engine, q rpq.Expr) (rel *pairs.Relation, err error) {
	defer recoverPanic(q.String(), &err)
	return worker.EvaluateRel(q)
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
