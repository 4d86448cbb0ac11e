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
	// ErrOverloaded rejects a batch when every evaluation slot is busy
	// and the sealed-batch queue is full — the admission-control
	// backstop that keeps an overload from growing an unbounded queue.
	ErrOverloaded = errors.New("server: overloaded, retry later")
)

// result is what the demux hands one waiter: the sealed relation, the
// graph epoch the evaluation was pinned to (or the batch's error),
// plus the request's stage breakdown and the serving path it took.
type result struct {
	rel    *pairs.Relation
	epoch  uint64
	err    error
	stages core.StageTimer
	path   resultPath
}

// waiter receives exactly one result; buffered so the demux never
// blocks on a waiter that timed out and walked away.
type waiter chan result

// waiterEntry is one request waiting in a window, stamped with its
// admission time so the demux can attribute its coalesce-wait stage.
type waiterEntry struct {
	ch       waiter
	enqueued time.Time
}

// pendingQuery is one distinct query of a forming batch with every
// request waiting on it — the dedup unit: any number of concurrent
// clients asking the same query string ride one evaluation. key is the
// dedup identity (the query string the requests carried), kept so the
// error fallback can attribute panics to the right quarantine entry.
type pendingQuery struct {
	key     string
	expr    rpq.Expr
	waiters []waiterEntry
}

// batch is one coalescing window's worth of queries. It is born when
// the first query of a window arrives, accumulates (deduplicated)
// queries until the window timer fires or the distinct-size cap is
// reached, and is then sealed — immutable, stamped with its seal time,
// handed to a dispatcher for one EvaluateBatchParallelRel call, and
// demultiplexed back to its waiters.
//
// Every batch carries its own context (independent of any one request's
// — waiters have different deadlines): live counts the waiters still
// parked on the batch, and when the batch is sealed and the last of
// them walks away, cancel fires so an evaluation nobody will read stops
// at its next checkpoint instead of running to completion. sealedFlag
// mirrors sealed for the abandon path, which runs without the
// coalescer's lock.
type batch struct {
	queries  []*pendingQuery
	index    map[string]int
	timer    *time.Timer
	sealed   bool
	sealedAt time.Time

	ctx        context.Context
	cancel     context.CancelFunc
	live       atomic.Int32
	sealedFlag atomic.Bool
}

// abandon records one waiter walking away (timeout or client
// disconnect). The last waiter of a sealed batch cancels the batch's
// context; with the store ordering here (decrement, then load the flag)
// against seal's (set the flag, then load the count), at least one side
// observes the other, and cancel is idempotent if both do.
func (b *batch) abandon() {
	if b.live.Add(-1) == 0 && b.sealedFlag.Load() {
		b.cancel()
	}
}

// sealReason tags why a batch left the window, for CoalescerStats.
type sealReason int

const (
	sealWindow sealReason = iota // the window timer expired
	sealSize                     // the distinct-query cap was reached
	sealFlush                    // Close flushed the pending batch
)

// coalescer implements the serving tentpole: concurrent POST /query
// requests are admitted into a bounded time/size window, deduplicated
// by query string, evaluated as ONE engine batch so unrelated clients
// share closure structures (and the whole batch is pinned to a single
// graph epoch), then demultiplexed back to their waiters.
//
// Two paths bypass the window. The fast path answers memo-warm queries
// straight from the epoch-tagged result cache. The fast lane admits
// queries that classify cheap under the planner's calibrated cost
// model — including heavy queries whose closure structures are already
// cached — onto a reserved evaluation slot, so a storm of expensive
// closure builds cannot queue-convoy the cheap majority. Both paths
// evaluate against the same epoch-pinned engine as the window, so
// results are identical to what the windowed path would return at that
// epoch.
type coalescer struct {
	engine *core.Engine
	opts   Options
	ctrl   *windowController

	mu          sync.Mutex
	pending     *batch
	queueClosed bool
	closed      bool
	queue       chan *batch

	// closedFlag mirrors closed for the lock-free admission paths
	// (fast path, fast lane, DisableCoalescing), so Close's "new
	// queries get 503" contract holds on every path, not just the
	// window.
	closedFlag atomic.Bool

	// fastSem is the fast lane's reserved-slot semaphore
	// (FastLaneSlots). Admission try-acquires: a busy lane sends the
	// query to the window instead of queueing — the window batches and
	// dedups a cheap storm more efficiently than a lane convoy would.
	fastSem chan struct{}

	// classMu guards the per-epoch admission-classification memo:
	// classifying a query costs one planner pass, so repeats at the
	// same epoch are a map probe. An epoch advance invalidates it
	// (cache state, and with it sunk-cost classification, changed).
	classMu    sync.Mutex
	classEpoch uint64
	classCheap map[string]bool

	// quar tracks query strings that panicked the evaluator; blocked
	// ones are rejected at admission with ErrQuarantined.
	quar *quarantine

	wg sync.WaitGroup

	// Counters behind CoalescerStats, all atomic.
	submitted, direct, dedupHits         atomic.Int64
	fastPathHits, fastLaneHits           atomic.Int64
	batches, batchQueries, batchDistinct atomic.Int64
	maxBatchDistinct                     atomic.Int64
	sealedByWindow, sealedBySize         atomic.Int64
	sealedByFlush                        atomic.Int64
	rejected, evalErrors, abandoned      atomic.Int64
	panics, batchesCancelled             atomic.Int64
	quarantineRejected                   atomic.Int64
}

// newCoalescer starts the dispatcher pool: opts.MaxInFlight goroutines
// each evaluating one sealed batch at a time.
func newCoalescer(engine *core.Engine, opts Options) *coalescer {
	c := &coalescer{
		engine:     engine,
		opts:       opts,
		ctrl:       newWindowController(opts),
		queue:      make(chan *batch, opts.MaxQueuedBatches),
		fastSem:    make(chan struct{}, opts.FastLaneSlots),
		classCheap: make(map[string]bool),
		quar:       newQuarantine(),
	}
	for i := 0; i < opts.MaxInFlight; i++ {
		c.wg.Add(1)
		go c.dispatch()
	}
	return c
}

// classifyCheap decides fast-lane admission for one query at the
// engine's current epoch, memoised per epoch. It returns the verdict
// and the classification time (attributed to the Plan stage of a
// fast-lane request — the planner pass is real planning work).
func (c *coalescer) classifyCheap(key string, expr rpq.Expr) (bool, int64) {
	t0 := time.Now()
	epoch := c.engine.Epoch()
	c.classMu.Lock()
	if c.classEpoch != epoch {
		c.classEpoch = epoch
		c.classCheap = make(map[string]bool)
	} else if cheap, ok := c.classCheap[key]; ok {
		c.classMu.Unlock()
		return cheap, time.Since(t0).Nanoseconds()
	}
	c.classMu.Unlock()

	_, cheap, err := c.engine.QueryCost(expr)
	if err != nil {
		// Unplannable here means it will fail identically in the batch;
		// let the windowed path produce the error.
		cheap = false
	}
	c.classMu.Lock()
	if c.classEpoch == epoch {
		c.classCheap[key] = cheap
	}
	c.classMu.Unlock()
	return cheap, time.Since(t0).Nanoseconds()
}

// notePanic inspects an evaluation error and, when it is a recovered
// panic, counts it and charges it to key's quarantine entry.
func (c *coalescer) notePanic(key string, err error) {
	var pe *core.QueryPanicError
	if errors.As(err, &pe) {
		c.panics.Add(1)
		c.quar.note(key)
	}
}

// submit admits one parsed query and blocks until its batch's result is
// demultiplexed back, the context expires, or admission fails. key must
// be the query string the request carried — it is the dedup identity.
func (c *coalescer) submit(ctx context.Context, key string, expr rpq.Expr) result {
	c.submitted.Add(1)
	now := time.Now()
	if ctx != nil {
		// A request whose context is already done (client gone, or the
		// deadline burned up in handler parsing) must not occupy a window
		// slot: nobody will read the result, and under a disconnect storm
		// those dead slots would seal batches early and evaluate work with
		// zero readers. Refuse before admission instead.
		if err := ctx.Err(); err != nil {
			c.abandoned.Add(1)
			return result{err: err}
		}
	}
	if c.closedFlag.Load() {
		c.rejected.Add(1)
		return result{err: ErrShuttingDown}
	}
	if c.quar.blocked(key) {
		c.quarantineRejected.Add(1)
		return result{err: ErrQuarantined}
	}
	// Only admitted work feeds the arrival-rate estimate: a rejected or
	// quarantined storm (dead contexts, shutdown shedding, poison
	// strings) is traffic the windows will never serve, and letting it
	// inflate the rate would shrink the adaptive window for the real
	// traffic behind it.
	c.ctrl.noteArrival(now)
	if c.opts.DisableCoalescing {
		// The coalescing-off baseline: evaluate on the shared engine
		// immediately, one evaluation per request. Concurrent identical
		// requests may still deduplicate inside the engine's cache; the
		// batch-level guarantees (one epoch per window, window dedup)
		// are gone.
		c.direct.Add(1)
		var st core.StageTimer
		rel, epoch, err := c.engine.EvaluateRelTimedCtx(ctx, expr, &st)
		c.notePanic(key, err)
		return result{rel: rel, epoch: epoch, err: err, stages: st, path: pathDirect}
	}

	// Fast path: a result already memoised at the current epoch answers
	// immediately — the window only ever forms around work that must
	// actually be computed, so warm repeat traffic pays no coalescing
	// latency at all.
	if rel, epoch, ok := c.engine.CachedResult(expr); ok {
		c.fastPathHits.Add(1)
		return result{rel: rel, epoch: epoch, path: pathFastPath}
	}

	// Fast lane: queries the calibrated cost model classifies cheap —
	// including heavy queries whose closure structures are already
	// cached (sunk cost) — evaluate on a reserved slot instead of
	// waiting out a window behind heavy closure builds. try-acquire
	// only: a busy lane falls through to the window, which batches and
	// dedups a cheap storm better than a convoy on the lane would.
	if !c.opts.DisableFastLane && cap(c.fastSem) > 0 {
		if cheap, planNS := c.classifyCheap(key, expr); cheap {
			select {
			case c.fastSem <- struct{}{}:
				var st core.StageTimer
				st.PlanNS += planNS
				rel, epoch, err := c.engine.EvaluateRelTimedCtx(ctx, expr, &st)
				<-c.fastSem
				c.fastLaneHits.Add(1)
				c.notePanic(key, err)
				return result{rel: rel, epoch: epoch, err: err, stages: st, path: pathFastLane}
			default:
			}
		}
	}

	w := waiterEntry{ch: make(waiter, 1), enqueued: now}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.rejected.Add(1)
		return result{err: ErrShuttingDown}
	}
	b := c.pending
	if b == nil {
		b = &batch{index: make(map[string]int)}
		// The batch's own context, not any request's: waiters come and
		// go with different deadlines, and the batch must keep evaluating
		// as long as at least one of them is still listening.
		b.ctx, b.cancel = context.WithCancel(context.Background())
		b.timer = time.AfterFunc(c.ctrl.window(), func() { c.seal(b, sealWindow) })
		c.pending = b
	}
	b.live.Add(1)
	if i, ok := b.index[key]; ok {
		c.dedupHits.Add(1)
		b.queries[i].waiters = append(b.queries[i].waiters, w)
	} else {
		b.index[key] = len(b.queries)
		b.queries = append(b.queries, &pendingQuery{key: key, expr: expr, waiters: []waiterEntry{w}})
	}
	full := len(b.queries) >= c.opts.MaxBatch
	c.mu.Unlock()
	if full {
		c.seal(b, sealSize)
	}

	select {
	case r := <-w.ch:
		return r
	case <-ctx.Done():
		// The per-request timeout or client disconnect: the waiter walks
		// away; the batch still evaluates if anyone else is listening
		// (its result serves the other waiters and warms the cache) and
		// the buffered channel absorbs the late send — but the LAST
		// waiter to abandon a sealed batch cancels its evaluation, so
		// work nobody will read stops at the next engine checkpoint.
		c.abandoned.Add(1)
		b.abandon()
		return result{err: ctx.Err()}
	}
}

// seal detaches b from the window and hands it to the dispatcher pool.
// Safe against the timer and the size path racing: only the first
// caller for a given batch proceeds.
func (c *coalescer) seal(b *batch, reason sealReason) {
	c.mu.Lock()
	if b.sealed || c.pending != b {
		c.mu.Unlock()
		return
	}
	b.sealed = true
	b.sealedAt = time.Now()
	c.pending = nil
	b.timer.Stop()
	// From here no new waiter can join (c.pending moved on), so live only
	// decreases. Publish the flag, then check the count: the mirror-image
	// ordering of batch.abandon, so the two can race but not both miss.
	b.sealedFlag.Store(true)
	if b.live.Load() == 0 {
		b.cancel()
	}
	switch reason {
	case sealWindow:
		c.sealedByWindow.Add(1)
	case sealSize:
		c.sealedBySize.Add(1)
	case sealFlush:
		c.sealedByFlush.Add(1)
	}
	if c.queueClosed {
		c.mu.Unlock()
		c.rejected.Add(int64(len(b.queries)))
		demux(b, nil, nil, 0, ErrShuttingDown)
		return
	}
	// Admission control: a full queue rejects the batch instead of
	// growing an unbounded backlog. The send stays under mu so Close's
	// queueClosed flip strictly orders with it.
	select {
	case c.queue <- b:
		c.mu.Unlock()
	default:
		c.mu.Unlock()
		c.rejected.Add(int64(len(b.queries)))
		demux(b, nil, nil, 0, ErrOverloaded)
	}
}

// dispatch is one evaluation slot: batches evaluate one at a time per
// slot, opts.MaxInFlight slots in parallel. A panic escaping a batch
// evaluation kills only that batch, never the slot: the engine already
// recovers per-query panics into errors, so anything reaching here is a
// bug outside the per-query boundary — the waiters get an error and the
// slot keeps draining the queue.
func (c *coalescer) dispatch() {
	defer c.wg.Done()
	for b := range c.queue {
		c.evaluateIsolated(b)
	}
}

// evaluateIsolated runs one batch with a last-resort recover around it.
func (c *coalescer) evaluateIsolated(b *batch) {
	defer func() {
		if r := recover(); r != nil {
			c.panics.Add(1)
			demux(b, nil, nil, 0, &core.QueryPanicError{Query: "(batch)", Value: r})
		}
	}()
	c.evaluate(b)
}

// evaluate runs one sealed batch through the engine and demultiplexes
// the sealed relations back to the waiters. The whole batch is pinned
// to one graph epoch by the engine's batch call, so every response of
// one window describes a single graph version even when /update lands
// mid-batch. The batch's context rides along: a batch whose waiters
// have all walked away is skipped before it starts, or aborted at the
// engine's next checkpoint if they leave mid-evaluation.
func (c *coalescer) evaluate(b *batch) {
	defer b.cancel()
	if b.live.Load() == 0 {
		// Every waiter abandoned while the batch sat in the queue: the
		// evaluation would have zero readers, so skip it entirely.
		c.batchesCancelled.Add(1)
		return
	}
	exprs := make([]rpq.Expr, len(b.queries))
	timers := make([]*core.StageTimer, len(b.queries))
	waiters := 0
	for i, pq := range b.queries {
		exprs[i] = pq.expr
		timers[i] = &core.StageTimer{}
		waiters += len(pq.waiters)
	}
	// Queue stage: sealed but waiting for this dispatcher slot. It is
	// per-batch (every query of the batch waited it out together).
	queueNS := time.Since(b.sealedAt).Nanoseconds()
	// Occupancy counts the waiters still listening at evaluate time, not
	// everyone ever admitted: under a disconnect storm the abandoned
	// majority must not keep the controller believing windows are full of
	// readers. The admitted total still feeds BatchQueries below — the
	// stats keep the historical view, the controller gets the live one.
	live := int(b.live.Load())
	rels, epoch, err := c.engine.EvaluateBatchParallelRelCtx(b.ctx, exprs, c.opts.Workers, timers)
	c.ctrl.noteBatch(live)
	c.batches.Add(1)
	c.batchQueries.Add(int64(waiters))
	c.batchDistinct.Add(int64(len(exprs)))
	for {
		cur := c.maxBatchDistinct.Load()
		if int64(len(exprs)) <= cur || c.maxBatchDistinct.CompareAndSwap(cur, int64(len(exprs))) {
			break
		}
	}
	for i := range timers {
		timers[i].QueueNS = queueNS
	}
	if err != nil {
		if b.ctx.Err() != nil {
			// The batch itself was cancelled: every waiter already left
			// with its own context error, so there is nobody to serve and
			// a per-query retry would just redo abandoned work.
			c.batchesCancelled.Add(1)
			demux(b, nil, timers, 0, err)
			return
		}
		// One failing query must not fail its co-batched neighbours:
		// the batch call aborts as a whole, so fall back to evaluating
		// each distinct query individually and demultiplex per-query
		// results and errors. Only the failing queries pay twice, and
		// only on this error path. The fallback runs on one Fork, whose
		// pinned graph version keeps the batch's single-epoch guarantee
		// even if an update lands between the per-query evaluations; the
		// panic-safe Ctx entry point recovers a poisoned query into its
		// own error (counted, quarantined) while its neighbours succeed.
		c.evalErrors.Add(1)
		worker := c.engine.Fork()
		for i, pq := range b.queries {
			*timers[i] = core.StageTimer{QueueNS: queueNS}
			rel, qEpoch, qErr := worker.EvaluateRelTimedCtx(b.ctx, pq.expr, timers[i])
			c.notePanic(pq.key, qErr)
			r := result{rel: rel, epoch: qEpoch, err: qErr, stages: *timers[i]}
			for _, w := range pq.waiters {
				r.stages.CoalesceWaitNS = b.sealedAt.Sub(w.enqueued).Nanoseconds()
				sendResult(w.ch, r)
			}
		}
		return
	}
	demux(b, rels, timers, epoch, err)
}

// demux fans one batch outcome back to every waiter, stamping each
// waiter's coalesce-wait (admission → seal) into its copy of the
// query's stage breakdown. rels is nil on error, in which case every
// waiter receives err; timers may be nil on pre-evaluation rejections.
func demux(b *batch, rels []*pairs.Relation, timers []*core.StageTimer, epoch uint64, err error) {
	for i, pq := range b.queries {
		r := result{epoch: epoch, err: err}
		if err == nil {
			r.rel = rels[i]
		}
		if timers != nil {
			r.stages = *timers[i]
		}
		for _, w := range pq.waiters {
			if !b.sealedAt.IsZero() {
				r.stages.CoalesceWaitNS = b.sealedAt.Sub(w.enqueued).Nanoseconds()
			}
			sendResult(w.ch, r)
		}
	}
}

// sendResult delivers one result without ever blocking the demux. Each
// waiter channel is buffered with capacity 1 and receives exactly one
// send on every normal path, so the buffer is always free; the default
// arm exists so a bug upstream (a double demux from the dispatcher's
// last-resort recover) degrades to a dropped duplicate instead of a
// wedged dispatcher slot.
func sendResult(ch waiter, r result) {
	select {
	case ch <- r:
	default:
	}
}

// close drains the coalescer: no new admissions, the pending batch is
// flushed and evaluated, dispatchers finish their queues and exit.
// Every already-admitted waiter receives a result.
func (c *coalescer) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	c.closedFlag.Store(true)
	b := c.pending
	c.mu.Unlock()

	if b != nil {
		c.seal(b, sealFlush)
	}

	c.mu.Lock()
	c.queueClosed = true
	c.mu.Unlock()
	close(c.queue)
	c.wg.Wait()
}

// CoalescerStats is a snapshot of the batch coalescer's activity — the
// /metrics view of how well concurrent traffic is landing in shared
// batches.
type CoalescerStats struct {
	// Submitted counts queries admitted (including coalescing-off
	// direct evaluations); Direct counts the ones evaluated without
	// coalescing.
	Submitted int64 `json:"submitted"`
	Direct    int64 `json:"direct"`
	// DedupHits counts admissions that joined an identical query
	// already pending in the window — each one is an evaluation the
	// batch did not have to run.
	DedupHits int64 `json:"dedup_hits"`
	// FastPathHits counts queries answered straight from the engine's
	// epoch-tagged result memo, skipping the window entirely.
	FastPathHits int64 `json:"fast_path_hits"`
	// FastLaneHits counts queries that classified cheap and evaluated
	// on the fast lane's reserved slot, bypassing the window.
	FastLaneHits int64 `json:"fast_lane_hits"`

	// Batches counts evaluated batches; BatchQueries the admitted
	// queries they carried (dedup included); BatchDistinct the distinct
	// queries actually evaluated. BatchQueries/Batches is the mean
	// window occupancy, BatchQueries/BatchDistinct the sharing factor.
	Batches          int64 `json:"batches"`
	BatchQueries     int64 `json:"batch_queries"`
	BatchDistinct    int64 `json:"batch_distinct"`
	MaxBatchDistinct int64 `json:"max_batch_distinct"`

	// SealedByWindow/SealedBySize/SealedByFlush split Batches by what
	// ended their window: the timer, the distinct-size cap, or Close.
	SealedByWindow int64 `json:"sealed_by_window"`
	SealedBySize   int64 `json:"sealed_by_size"`
	SealedByFlush  int64 `json:"sealed_by_flush"`

	// Rejected counts queries turned away by admission control;
	// Abandoned counts waiters that hit their per-request timeout or
	// disconnected (including requests arriving with an already-expired
	// context, refused before taking a window slot); EvalErrors counts
	// batches whose evaluation failed.
	Rejected   int64 `json:"rejected"`
	Abandoned  int64 `json:"abandoned"`
	EvalErrors int64 `json:"eval_errors"`

	// Panics counts evaluator panics recovered into per-query errors;
	// BatchesCancelled counts batches skipped or aborted because every
	// waiter abandoned them; QuarantineRejected counts queries refused
	// at admission because their string is quarantined, and
	// QuarantineSize is how many crashed strings are currently tracked.
	Panics             int64 `json:"panics"`
	BatchesCancelled   int64 `json:"batches_cancelled"`
	QuarantineRejected int64 `json:"quarantine_rejected"`
	QuarantineSize     int64 `json:"quarantine_size"`
}

// stats snapshots the counters.
func (c *coalescer) stats() CoalescerStats {
	return CoalescerStats{
		Submitted:          c.submitted.Load(),
		Direct:             c.direct.Load(),
		DedupHits:          c.dedupHits.Load(),
		FastPathHits:       c.fastPathHits.Load(),
		FastLaneHits:       c.fastLaneHits.Load(),
		Batches:            c.batches.Load(),
		BatchQueries:       c.batchQueries.Load(),
		BatchDistinct:      c.batchDistinct.Load(),
		MaxBatchDistinct:   c.maxBatchDistinct.Load(),
		SealedByWindow:     c.sealedByWindow.Load(),
		SealedBySize:       c.sealedBySize.Load(),
		SealedByFlush:      c.sealedByFlush.Load(),
		Rejected:           c.rejected.Load(),
		Abandoned:          c.abandoned.Load(),
		EvalErrors:         c.evalErrors.Load(),
		Panics:             c.panics.Load(),
		BatchesCancelled:   c.batchesCancelled.Load(),
		QuarantineRejected: c.quarantineRejected.Load(),
		QuarantineSize:     int64(c.quar.size()),
	}
}
