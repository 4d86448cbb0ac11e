package core

import (
	"context"
	"errors"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"rtcshare/internal/pairs"
)

// SharedCache holds the shared structures of the sharing strategies —
// the RTCs (TC(Ḡ_R) + SCC tables) and the full closures R+_G — keyed by
// the canonical sub-query text. It is
// the concurrent form of Algorithm 1's "already computed?" test
// (lines 9–11): any number of engines may share one cache, and two
// goroutines that miss on the same key at the same time deduplicate —
// exactly one runs the computation while the others block until the
// value is published (singleflight).
//
// The cache is safe for concurrent use. Keys are spread over a fixed
// number of independently locked shards, so lookups of distinct
// sub-queries do not contend; a shard's lock is never held while a value
// is being computed, so a compute may recursively use the cache (nested
// Kleene closures depend only on strictly smaller sub-expressions, which
// rules out cyclic waits). Values stored in the cache are immutable by
// contract: engines only ever read them.
//
// Next to the structure region the cache keeps a second, independently
// sharded and counted *relation* region: the sealed columnar sub-query
// results (R_G, Pre_G, Post_G) of the columnar engine layout. Sealed
// relations are two exactly-sized int32 columns — far lighter than the
// map sets the seed kept engine-local — so sharing them process-wide
// lets concurrent engines (and the forks of EvaluateBatchParallel)
// probe one frozen copy with zero copying. The regions are separate so
// the structure counters keep their meaning: Counters/Len report
// closure structures only, exactly as before.
//
// # Epochs
//
// Since the graph under a cache can now change (Engine.ApplyUpdates),
// every entry is tagged with the graph epoch it was computed at, and
// every access carries the caller's pinned epoch. The rules keep stale
// structures from ever poisoning a reader:
//
//   - same epoch: a normal hit (singleflight wait included);
//   - entry older than the caller: the entry is stale — it is evicted on
//     the spot and the caller recomputes, installing the fresh value
//     under its own epoch;
//   - entry NEWER than the caller: the caller is a straggler still
//     pinned to an old graph version (an evaluation in flight across an
//     update). It computes privately, without installing, so it can
//     neither use the new graph's entry nor evict it.
//
// A cross-epoch value is therefore never returned; CacheCounters records
// CrossEpochHits as a regression tripwire and the -race stress suite
// asserts it stays zero. AdvanceEpoch flips the whole cache to a new
// epoch in one sweep, asking the updater per surviving entry whether to
// keep it (carried to the new epoch unchanged) or drop it.
type SharedCache struct {
	seed      maphash.Seed
	epoch     atomic.Uint64
	shards    [cacheShards]cacheShard
	relShards [cacheShards]cacheShard

	hits   atomic.Int64
	misses atomic.Int64

	relHits   atomic.Int64
	relMisses atomic.Int64
	// relPairs tracks the pairs resident in the relation region, for the
	// admission budget below.
	relPairs atomic.Int64

	// crossEpochHits counts completed entries of a different epoch
	// handed to a caller. The access rules make this impossible; the
	// counter exists so tests can assert it stays that way.
	crossEpochHits atomic.Int64
	// staleEvictions counts entries evicted because a newer-epoch caller
	// found them outdated (lazy invalidation, complementing the eager
	// sweep of AdvanceEpoch).
	staleEvictions atomic.Int64
}

// relBudgetPairs is the soft bound on the relation region, in
// pair-equivalent units (8 bytes each, ~128 MiB total): once the cached
// sub-query relations reach it, newly computed relations are handed to
// their waiters but not retained, so later uses recompute instead of
// growing the process footprint. Each entry is charged its pairs plus a
// vertex-proportional overhead for its offsets columns (relationCost),
// so a stream of tiny relations over a huge graph cannot pin unbounded
// memory through offsets alone. Sub-query relations are worst-case
// O(|V|²), and — unlike the seed's engine-local map sets, which died
// with their engine — the region is process-wide. The bound is advisory
// (admissions on different shards may overshoot by a relation); the
// compact closure structures remain unbounded as before.
const relBudgetPairs = 16 << 20

// relationCost is an entry's charge against relBudgetPairs in
// pair-equivalents: its pairs (two int32 columns counting the lazy
// transpose) plus its offset columns (numVertices+1 int32s each side,
// i.e. one pair-equivalent per vertex).
func relationCost(rel *pairs.Relation) int64 {
	return int64(rel.Len()) + int64(rel.NumVertices()) + 1
}

// cacheShards is the shard count: enough that a handful of worker
// goroutines rarely collide, small enough to stay cheap to allocate.
const cacheShards = 16

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

// cacheEntry is one in-flight or completed computation. done is closed
// when val/err/retained become readable. epoch is fixed at creation:
// entries never migrate between epochs in place (AdvanceEpoch installs a
// fresh entry when it carries a value forward).
type cacheEntry struct {
	epoch uint64
	done  chan struct{}
	val   any
	err   error
	// retained reports whether the entry stayed in the cache after
	// completion; false when the relation budget declined it, telling
	// callers (including singleflight waiters) to keep the value
	// themselves if they want it memoised.
	retained bool
}

// NewSharedCache returns an empty cache at epoch 0.
func NewSharedCache() *SharedCache {
	c := &SharedCache{seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*cacheEntry)
		c.relShards[i].entries = make(map[string]*cacheEntry)
	}
	return c
}

func (c *SharedCache) shard(key string) *cacheShard {
	return &c.shards[maphash.String(c.seed, key)%cacheShards]
}

func (c *SharedCache) relShard(key string) *cacheShard {
	return &c.relShards[maphash.String(c.seed, key)%cacheShards]
}

// CurrentEpoch returns the cache's graph epoch. Engines pin it at
// construction and at every ApplyUpdates.
func (c *SharedCache) CurrentEpoch() uint64 { return c.epoch.Load() }

// GetOrCompute returns the cached value for key at the caller's graph
// epoch, computing it with fn on first use. Concurrent same-epoch calls
// with the same key run fn once: the first caller computes while the
// rest wait for its result. computed reports whether this call was the
// one that ran fn — the cache-miss signal the engine's Stats counters
// record. Entries from older epochs are evicted and recomputed; a caller
// older than the resident entry computes privately (see the type
// comment's epoch rules).
//
// If fn fails, every waiter receives the error and the entry is dropped,
// so a later call retries the computation — except a cancellation
// error, which waiters never inherit (see getOrCompute). fn runs
// without any cache lock held and may itself call GetOrCompute with
// different keys.
func (c *SharedCache) GetOrCompute(epoch uint64, key string, fn func() (any, error)) (val any, computed bool, err error) {
	val, computed, _, err = c.getOrCompute(c.shard(key), &c.hits, &c.misses, epoch, key, fn, nil, nil)
	return val, computed, err
}

// GetOrComputeRelation is GetOrCompute against the relation region: the
// same singleflight and epoch discipline, separate shards and separate
// counters, used by the columnar executor to memoise sealed sub-query
// relations process-wide. Values are *pairs.Relation by convention.
// Retention is bounded by relBudgetPairs: over budget, the computed
// relation is returned (and delivered to concurrent waiters) with
// retained=false and not kept — callers that still want memoisation
// keep it in their own (engine-lifetime) overflow memo.
func (c *SharedCache) GetOrComputeRelation(epoch uint64, key string, fn func() (any, error)) (val any, computed, retained bool, err error) {
	return c.getOrCompute(c.relShard(key), &c.relHits, &c.relMisses, epoch, key, fn, c.admitRelation, c.evictRelation)
}

// admitRelation charges a freshly computed relation against the region
// budget, reporting whether it may stay cached. It runs under the
// owning shard's lock (so a charged relation is always resident), but
// the budget itself is deliberately approximate: admissions on
// different shards may interleave and overshoot by a relation, because
// a global reservation would serialise every seal for a bound that
// only needs rough enforcement.
func (c *SharedCache) admitRelation(val any) bool {
	rel, ok := val.(*pairs.Relation)
	if !ok {
		return true
	}
	n := relationCost(rel)
	if c.relPairs.Load()+n > relBudgetPairs {
		return false
	}
	c.relPairs.Add(n)
	return true
}

// evictRelation returns a retained relation's budget charge when its
// entry leaves the cache (stale eviction or epoch-sweep drop).
func (c *SharedCache) evictRelation(val any) {
	if rel, ok := val.(*pairs.Relation); ok {
		c.relPairs.Add(-relationCost(rel))
	}
}

// getOrCompute is the shared singleflight core. admit, when non-nil,
// runs after a successful computation; returning false evicts the
// entry (waiters still receive the value, marked unretained) so later
// calls recompute. evict, when non-nil, runs when a completed retained
// entry is dropped, returning its budget charge.
//
// A waiter does not inherit the computing caller's cancellation: fn
// polls its own caller's context, so a context.Canceled or
// DeadlineExceeded from it says that caller walked away, not that the
// value cannot be computed. The failed entry is already dropped, so
// the waiter retries and computes (or joins a newer flight) under its
// own context.
func (c *SharedCache) getOrCompute(s *cacheShard, hits, misses *atomic.Int64, epoch uint64, key string, fn func() (any, error), admit func(any) bool, evict func(any)) (val any, computed, retained bool, err error) {
	s.mu.Lock()
	// Same epoch: a normal hit, waiting out an in-flight computation.
	for e, ok := s.entries[key]; ok && e.epoch == epoch; e, ok = s.entries[key] {
		s.mu.Unlock()
		<-e.done
		if e.epoch != epoch {
			// Unreachable by construction (entry epochs are fixed at
			// creation); counted so a future regression is loud.
			c.crossEpochHits.Add(1)
		}
		if !errors.Is(e.err, context.Canceled) && !errors.Is(e.err, context.DeadlineExceeded) {
			hits.Add(1)
			return e.val, false, e.retained, e.err
		}
		s.mu.Lock()
	}
	if e, ok := s.entries[key]; ok {
		if e.epoch > epoch {
			// The caller is pinned to an older graph version than the
			// resident entry. Compute privately: the straggler may not
			// reuse the newer value, and must not evict it either.
			s.mu.Unlock()
			misses.Add(1)
			val, err = fn()
			return val, true, false, err
		}
		// Stale entry from before an update: evict and recompute. An
		// in-flight stale computation is detached, not interrupted — its
		// waiters still get their (old-epoch) value, but it will not land
		// in the map or charge the budget.
		c.staleEvictions.Add(1)
		c.dropEntryLocked(s, key, e, evict)
	}
	e := &cacheEntry{epoch: epoch, done: make(chan struct{})}
	s.entries[key] = e
	s.mu.Unlock()
	misses.Add(1)

	e.val, e.err = fn()
	s.mu.Lock()
	// Act only on our own entry: a Reset/AdvanceEpoch during fn may have
	// swapped or removed it (detaching e), and another goroutine may
	// since have installed a fresh entry under the same key. A detached
	// entry is neither evicted nor admitted — in particular its pairs are
	// never charged to the relation budget, since they are not resident.
	if s.entries[key] == e {
		if e.err != nil || (admit != nil && !admit(e.val)) {
			delete(s.entries, key)
		} else {
			e.retained = true
		}
	}
	s.mu.Unlock()
	close(e.done)
	return e.val, true, e.retained, e.err
}

// dropEntryLocked removes an entry from its shard (whose lock the caller
// holds), returning a retained relation's budget charge.
func (c *SharedCache) dropEntryLocked(s *cacheShard, key string, e *cacheEntry, evict func(any)) {
	delete(s.entries, key)
	if evict == nil {
		return
	}
	select {
	case <-e.done:
		if e.err == nil && e.retained {
			evict(e.val)
		}
	default:
		// In flight: it has not been admitted, so there is nothing to
		// un-charge.
	}
}

// Lookup returns the completed value for key at the caller's epoch
// without computing anything. It reports false for absent keys, for
// computations still in flight (Explain uses it, and Explain must never
// block on a running query), and for entries of any other epoch.
func (c *SharedCache) Lookup(epoch uint64, key string) (any, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	s.mu.Unlock()
	if !ok || e.epoch != epoch {
		return nil, false
	}
	select {
	case <-e.done:
		if e.err != nil {
			return nil, false
		}
		return e.val, true
	default:
		return nil, false
	}
}

// LookupRelation is Lookup against the relation region: the completed
// sealed relation for key at the caller's epoch, never blocking and
// never computing. The query service's fast path uses it to answer a
// request from the memoised result without taking an evaluation slot.
func (c *SharedCache) LookupRelation(epoch uint64, key string) (any, bool) {
	s := c.relShard(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	s.mu.Unlock()
	if !ok || e.epoch != epoch {
		return nil, false
	}
	select {
	case <-e.done:
		if e.err != nil || !e.retained {
			return nil, false
		}
		return e.val, true
	default:
		return nil, false
	}
}

// CacheRegion names the two cache regions for AdvanceEpoch's keep
// predicate.
type CacheRegion int

const (
	// RegionStructure holds closure structures (RTCs, full closures).
	RegionStructure CacheRegion = iota
	// RegionRelation holds sealed sub-query relations.
	RegionRelation
)

// AdvanceEpoch moves the cache to a new graph epoch and sweeps both
// regions, returning the new epoch. Only completed entries computed at
// exactly fromEpoch — the updating engine's pre-update epoch, the one
// graph version its deltas describe — are offered to keep: a kept entry
// is re-stamped at the new epoch in its slot, with the same value and
// the same relation-budget charge, and any other entry is dropped.
// Entries at any OTHER old epoch (a straggler's late install, or a
// diverged engine's) are dropped unconditionally: the caller's deltas
// say nothing about them, so carrying them would smuggle a
// multi-epoch-stale value into the new epoch. A nil keep drops
// everything. In-flight entries are detached: their waiters still
// receive the old-epoch result, but the entry leaves the map, so it can
// never serve a new-epoch reader — which is what makes the flip atomic
// from the readers' point of view: an evaluation is entirely pre-epoch
// or entirely post-epoch, never a mixture.
//
// keep runs under the shard lock, so it must be cheap and must not call
// back into the cache. The re-stamp installs a fresh completed entry
// rather than mutating the old one, so an entry's epoch stays fixed at
// creation for readers still holding it. The caller
// (Engine.ApplyUpdates) installs the new epoch in its new engine version
// only after this sweep completes.
func (c *SharedCache) AdvanceEpoch(fromEpoch uint64, keep func(region CacheRegion, key string) bool) uint64 {
	newEpoch := c.epoch.Add(1)
	sweep := func(region CacheRegion, shards *[cacheShards]cacheShard, evict func(any)) {
		for i := range shards {
			s := &shards[i]
			s.mu.Lock()
			for key, e := range s.entries {
				if e.epoch >= newEpoch {
					continue
				}
				select {
				case <-e.done:
				default:
					// In flight at an old epoch: detach.
					delete(s.entries, key)
					continue
				}
				if e.err == nil && e.epoch == fromEpoch && keep != nil && keep(region, key) {
					s.entries[key] = &cacheEntry{epoch: newEpoch, done: e.done, val: e.val, retained: true}
					continue
				}
				c.dropEntryLocked(s, key, e, evict)
			}
			s.mu.Unlock()
		}
	}
	sweep(RegionStructure, &c.shards, nil)
	sweep(RegionRelation, &c.relShards, c.evictRelation)
	return newEpoch
}

// Len returns the number of cached structure entries, including
// in-flight ones. Relation-region entries are counted by RelLen.
func (c *SharedCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// RelLen returns the number of cached sealed sub-query relations,
// including in-flight ones.
func (c *SharedCache) RelLen() int {
	n := 0
	for i := range c.relShards {
		s := &c.relShards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Reset drops every entry of both regions and zeroes the counters; the
// epoch is kept (it numbers graph versions, not cache generations).
// Entries still being computed are detached, not interrupted: their
// waiters get the result, but later lookups recompute.
func (c *SharedCache) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[string]*cacheEntry)
		s.mu.Unlock()
		r := &c.relShards[i]
		r.mu.Lock()
		r.entries = make(map[string]*cacheEntry)
		r.mu.Unlock()
	}
	c.hits.Store(0)
	c.misses.Store(0)
	c.relHits.Store(0)
	c.relMisses.Store(0)
	c.relPairs.Store(0)
	c.crossEpochHits.Store(0)
	c.staleEvictions.Store(0)
}

// CacheCounters is a snapshot of a SharedCache's activity: Misses counts
// GetOrCompute calls that ran the computation, Hits counts calls that
// reused a cached or in-flight one. Misses therefore equals the number
// of distinct structures actually computed — the "each R computed
// exactly once" invariant the concurrency tests assert.
type CacheCounters struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`

	// RelHits/RelMisses/RelEntries are the same counters for the
	// relation region: sealed sub-query relations the columnar layout
	// memoises. RelMisses equals the number of distinct sub-queries
	// actually evaluated and sealed.
	RelHits    int64 `json:"rel_hits"`
	RelMisses  int64 `json:"rel_misses"`
	RelEntries int   `json:"rel_entries"`

	// Epoch is the cache's current graph epoch. CrossEpochHits counts
	// values served across epochs — the access rules make it impossible,
	// and the update stress tests assert it stays 0. StaleEvictions
	// counts old-epoch entries lazily evicted by newer readers.
	Epoch          uint64 `json:"epoch"`
	CrossEpochHits int64  `json:"cross_epoch_hits"`
	StaleEvictions int64  `json:"stale_evictions"`
}

// Counters returns a snapshot of the cache's hit/miss counters.
func (c *SharedCache) Counters() CacheCounters {
	return CacheCounters{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Entries:        c.Len(),
		RelHits:        c.relHits.Load(),
		RelMisses:      c.relMisses.Load(),
		RelEntries:     c.RelLen(),
		Epoch:          c.epoch.Load(),
		CrossEpochHits: c.crossEpochHits.Load(),
		StaleEvictions: c.staleEvictions.Load(),
	}
}
