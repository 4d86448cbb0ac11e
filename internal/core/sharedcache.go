package core

import (
	"context"
	"errors"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"rtcshare/internal/pairs"
)

// SharedCache holds an engine's shared values keyed by canonical
// sub-query text, in two regions of one type (cacheRegion): structures
// holds the closure structures — an RTC (SCC tables, condensation and
// reach table) under RTCSharing, the full closure R+_G under FullSharing
// — and relations holds the sealed columnar sub-query and result
// relations (R_G, Pre_G, Post_G, whole queries). It is the concurrent
// form of Algorithm 1's "already computed?" test (lines 9–11): every
// call on the engine shares it, and two goroutines that miss on the same
// key at the same time deduplicate — exactly one runs the computation
// while the others block until the value is published (singleflight).
// Each engine builds its own cache with one strategy, so a key never has
// to encode the graph or the strategy; the two regions keep a
// FullSharing engine's R_G and TC(G_R), both keyed by R's text, apart,
// and count structures and relations separately.
//
// The cache is safe for concurrent use. Each region spreads its keys
// over a fixed number of independently locked shards, so lookups of
// distinct sub-queries do not contend; a shard's lock is never held
// while a value is being computed, so a compute may recursively use the
// cache (nested Kleene closures depend only on strictly smaller
// sub-expressions, which rules out cyclic waits). Values stored in the
// cache are immutable by contract: engines only ever read them. A sealed
// relation is exactly-sized int32 columns, so concurrent calls probe one
// frozen copy with zero copying; the relation region alone is bounded,
// by relBudgetBytes.
//
// # Epochs
//
// The graph under a cache changes (Engine.ApplyUpdates), so every entry
// is tagged with the graph epoch it was computed at, and every access
// carries the caller's pinned epoch. The rules keep stale structures
// from ever poisoning a reader:
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
// asserts it stays zero. advanceEpoch flips the whole cache to a new
// epoch in one sweep, asking the updater per surviving entry whether to
// keep it (carried to the new epoch unchanged) or drop it.
type SharedCache struct {
	seed       maphash.Seed
	epoch      atomic.Uint64
	structures cacheRegion
	relations  cacheRegion

	// relBytes tracks the column bytes resident in the relation region,
	// for the admission budget below.
	relBytes atomic.Int64

	// crossEpochHits counts completed entries of a different epoch
	// handed to a caller. The access rules make this impossible; the
	// counter exists so tests can assert it stays that way.
	crossEpochHits atomic.Int64
	// staleEvictions counts entries evicted because a newer-epoch caller
	// found them outdated (lazy invalidation, complementing the eager
	// sweep of advanceEpoch).
	staleEvictions atomic.Int64
}

// cacheRegion is one keyspace of the cache: its shards and its hit and
// miss counters. admit, when non-nil, runs under the owning shard's lock
// after a successful computation; returning false evicts the entry
// (waiters still receive the value, marked unretained) so later calls
// recompute. evict, when non-nil, runs when a completed retained entry
// is dropped, returning its budget charge. Only the relation region sets
// them.
type cacheRegion struct {
	shards [cacheShards]cacheShard
	hits   atomic.Int64
	misses atomic.Int64
	admit  func(any) bool
	evict  func(any)
}

// relBudgetBytes is the soft bound on the relation region (128 MiB):
// once the cached sub-query relations reach it, newly computed relations
// are handed to their waiters but not retained, so later uses recompute
// instead of growing the process footprint. Each entry is charged the
// bytes of the columns it holds (relationCost), so a stream of tiny
// relations over a huge graph cannot pin unbounded memory through
// offsets alone, and a row-shared result pays for its distinct rows, not
// for every pair it answers. Sub-query relations are worst-case O(|V|²)
// and live as long as the engine. The bound is advisory (admissions on
// different shards may overshoot by a relation); the compact closure
// structures are unbounded.
const relBudgetBytes = 128 << 20

// relationCost is an entry's charge against relBudgetBytes: the bytes of
// its sealed columns (Relation.ColumnBytes). The lazily built columns —
// the transpose, and a row-shared relation's per-source CSR — are not
// charged: the charge is fixed at admission, so the eviction can return
// it exactly. A label relation, whose columns are the graph's
// (labelRelation), is charged 0.
func relationCost(rel *pairs.Relation) int64 {
	return rel.ColumnBytes()
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
// entries never migrate between epochs in place (advanceEpoch installs a
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

// newSharedCache returns an empty cache at the given graph epoch.
func newSharedCache(epoch uint64) *SharedCache {
	c := &SharedCache{seed: maphash.MakeSeed()}
	c.epoch.Store(epoch)
	for i := range cacheShards {
		c.structures.shards[i].entries = make(map[string]*cacheEntry)
		c.relations.shards[i].entries = make(map[string]*cacheEntry)
	}
	c.relations.admit, c.relations.evict = c.admitRelation, c.evictRelation
	return c
}

func (c *SharedCache) shard(r *cacheRegion, key string) *cacheShard {
	return &r.shards[maphash.String(c.seed, key)%cacheShards]
}

// getOrCompute returns region r's value for key at the caller's graph
// epoch, computing it with fn on first use. Concurrent same-epoch calls
// with the same key run fn once: the first caller computes while the
// rest wait for its result. computed reports whether this call was the
// one that ran fn — the cache-miss signal the engine's Stats counters
// record. retained reports whether the value stays cached: a structure
// always does, a relation only within relBudgetBytes — over budget, the
// computed relation is returned (and delivered to concurrent waiters)
// with retained=false and not kept, and callers that still want
// memoisation keep it in their own per-call overflow memo. Entries from
// older epochs are evicted and recomputed; a caller older than the
// resident entry computes privately, unretained (see the type comment's
// epoch rules).
//
// If fn fails, every waiter receives the error and the entry is dropped,
// so a later call retries the computation. A waiter does not inherit the
// computing caller's cancellation, though: fn polls its own caller's
// context, so a context.Canceled or DeadlineExceeded from it says that
// caller walked away, not that the value cannot be computed. The failed
// entry is already dropped, so the waiter retries and computes (or joins
// a newer flight) under its own context. fn runs without any cache lock
// held and may itself call getOrCompute with different keys.
func (c *SharedCache) getOrCompute(r *cacheRegion, epoch uint64, key string, fn func() (any, error)) (val any, computed, retained bool, err error) {
	s := c.shard(r, key)
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
			r.hits.Add(1)
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
			r.misses.Add(1)
			val, err = fn()
			return val, true, false, err
		}
		// Stale entry from before an update: evict and recompute. An
		// in-flight stale computation is detached, not interrupted — its
		// waiters still get their (old-epoch) value, but it will not land
		// in the map or charge the budget.
		c.staleEvictions.Add(1)
		r.dropLocked(s, key, e)
	}
	e := &cacheEntry{epoch: epoch, done: make(chan struct{})}
	s.entries[key] = e
	s.mu.Unlock()
	r.misses.Add(1)

	e.val, e.err = fn()
	s.mu.Lock()
	// Act only on our own entry: an advanceEpoch during fn may have
	// removed it (detaching e), and another goroutine may
	// since have installed a fresh entry under the same key. A detached
	// entry is neither evicted nor admitted — in particular its pairs are
	// never charged to the relation budget, since they are not resident.
	if s.entries[key] == e {
		if e.err != nil || (r.admit != nil && !r.admit(e.val)) {
			delete(s.entries, key)
		} else {
			e.retained = true
		}
	}
	s.mu.Unlock()
	close(e.done)
	return e.val, true, e.retained, e.err
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
	// A full region admits nothing, not even a relation that costs 0.
	n := relationCost(rel)
	if b := c.relBytes.Load(); b >= relBudgetBytes || b+n > relBudgetBytes {
		return false
	}
	c.relBytes.Add(n)
	return true
}

// evictRelation returns a retained relation's budget charge when its
// entry leaves the cache (stale eviction or epoch-sweep drop).
func (c *SharedCache) evictRelation(val any) {
	if rel, ok := val.(*pairs.Relation); ok {
		c.relBytes.Add(-relationCost(rel))
	}
}

// dropLocked removes an entry from its shard (whose lock the caller
// holds), returning a retained entry's budget charge.
func (r *cacheRegion) dropLocked(s *cacheShard, key string, e *cacheEntry) {
	delete(s.entries, key)
	if r.evict == nil {
		return
	}
	select {
	case <-e.done:
		if e.err == nil && e.retained {
			r.evict(e.val)
		}
	default:
		// In flight: it has not been admitted, so there is nothing to
		// un-charge.
	}
}

// lookup returns region r's completed, retained value for key at the
// caller's epoch without computing anything. It reports false for absent
// keys, for computations still in flight (Explain uses it, and Explain
// must never block on a running query), and for entries of any other
// epoch. The query service's fast path uses it on the relation region to
// answer a request from the memoised result without taking an
// evaluation slot.
func (c *SharedCache) lookup(r *cacheRegion, epoch uint64, key string) (any, bool) {
	s := c.shard(r, key)
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

// advanceEpoch moves the cache to a new graph epoch and sweeps both
// regions, returning the new epoch. Only completed entries computed at
// exactly fromEpoch — the updating engine's pre-update epoch, the one
// graph version its deltas describe — are offered to keep, with their
// region: a kept entry is re-stamped at the new epoch in its slot, with
// the same value and the same relation-budget charge, and any other
// entry is dropped. Entries at any OTHER old epoch (a straggler's late
// install) are dropped unconditionally: the caller's deltas
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
func (c *SharedCache) advanceEpoch(fromEpoch uint64, keep func(region *cacheRegion, key string) bool) uint64 {
	newEpoch := c.epoch.Add(1)
	for _, r := range [...]*cacheRegion{&c.structures, &c.relations} {
		for i := range r.shards {
			s := &r.shards[i]
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
				if e.err == nil && e.epoch == fromEpoch && keep != nil && keep(r, key) {
					s.entries[key] = &cacheEntry{epoch: newEpoch, done: e.done, val: e.val, retained: true}
					continue
				}
				r.dropLocked(s, key, e)
			}
			s.mu.Unlock()
		}
	}
	return newEpoch
}

// len counts the region's entries, including in-flight ones.
func (r *cacheRegion) len() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// CacheCounters is a snapshot of a SharedCache's activity: Misses counts
// structure lookups that ran the computation, Hits counts lookups that
// reused a cached or in-flight one. Misses therefore equals the number
// of distinct structures actually computed — the "each R computed
// exactly once" invariant the concurrency tests assert.
type CacheCounters struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`

	// RelHits/RelMisses/RelEntries are the same counters for the
	// relation region: the sealed sub-query and result relations.
	// RelMisses equals the number of distinct sub-queries actually
	// evaluated and sealed.
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
		Hits:           c.structures.hits.Load(),
		Misses:         c.structures.misses.Load(),
		Entries:        c.structures.len(),
		RelHits:        c.relations.hits.Load(),
		RelMisses:      c.relations.misses.Load(),
		RelEntries:     c.relations.len(),
		Epoch:          c.epoch.Load(),
		CrossEpochHits: c.crossEpochHits.Load(),
		StaleEvictions: c.staleEvictions.Load(),
	}
}
