package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// TestSharedCacheSingleflight hammers one cache from many goroutines
// with overlapping keys and asserts the singleflight invariant: every
// distinct key's computation runs exactly once, and every caller
// observes that one value. Run under -race this also exercises the
// shard locking.
func TestSharedCacheSingleflight(t *testing.T) {
	const (
		goroutines = 32
		iterations = 200
		keys       = 10
	)
	cache := newSharedCache(0)
	computes := make([]atomic.Int64, keys)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iterations; i++ {
				k := rng.Intn(keys)
				v, _, _, err := cache.getOrCompute(&cache.structures, 0, fmt.Sprintf("key-%d", k), func() (any, error) {
					computes[k].Add(1)
					return k * k, nil
				})
				if err != nil {
					t.Errorf("GetOrCompute: %v", err)
					return
				}
				if got := v.(int); got != k*k {
					t.Errorf("key %d: got %d, want %d", k, got, k*k)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	for k := range computes {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want exactly 1", k, n)
		}
	}
	c := cache.Counters()
	if c.Misses != keys {
		t.Errorf("cache misses = %d, want %d (one per distinct key)", c.Misses, keys)
	}
	if want := int64(goroutines*iterations) - keys; c.Hits != want {
		t.Errorf("cache hits = %d, want %d", c.Hits, want)
	}
	if c.Entries != keys {
		t.Errorf("cache entries = %d, want %d", c.Entries, keys)
	}
}

// TestSharedCacheErrorRetry verifies that a failed computation is not
// cached: waiters of the failing flight see the error, and the next
// call retries.
func TestSharedCacheErrorRetry(t *testing.T) {
	cache := newSharedCache(0)
	boom := errors.New("boom")
	var calls atomic.Int64

	_, computed, _, err := cache.getOrCompute(&cache.structures, 0, "k", func() (any, error) {
		calls.Add(1)
		return nil, boom
	})
	if !computed || !errors.Is(err, boom) {
		t.Fatalf("first call: computed=%v err=%v, want computed=true err=boom", computed, err)
	}
	if _, ok := cache.lookup(&cache.structures, 0, "k"); ok {
		t.Fatalf("failed computation was cached")
	}

	v, computed, _, err := cache.getOrCompute(&cache.structures, 0, "k", func() (any, error) {
		calls.Add(1)
		return 42, nil
	})
	if err != nil || !computed || v.(int) != 42 {
		t.Fatalf("retry: v=%v computed=%v err=%v, want 42/true/nil", v, computed, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("compute ran %d times, want 2", calls.Load())
	}
}

// TestSharedCacheErrorRetryConcurrent repeats the retry property under
// contention: many goroutines race on a key whose computation fails the
// first time it runs; eventually all succeed and the successful value
// is computed exactly once.
func TestSharedCacheErrorRetryConcurrent(t *testing.T) {
	cache := newSharedCache(0)
	var failed, succeeded atomic.Int64

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, _, _, err := cache.getOrCompute(&cache.structures, 0, "k", func() (any, error) {
					if failed.CompareAndSwap(0, 1) {
						return nil, errors.New("transient")
					}
					succeeded.Add(1)
					return "ok", nil
				})
				if err != nil {
					continue // the transient failure; retry like a caller would
				}
				if v.(string) != "ok" {
					t.Errorf("got %v, want ok", v)
				}
				return
			}
		}()
	}
	wg.Wait()

	if succeeded.Load() != 1 {
		t.Fatalf("successful compute ran %d times, want exactly 1", succeeded.Load())
	}
}

// TestSharedCacheWaiterIgnoresLeaderCancel: a singleflight waiter does
// not inherit the computing caller's cancellation. The leader's fn
// blocks while a waiter parks on its flight, then fails with a
// cancellation error; the leader sees that error, and the waiter gets
// the value from its own recompute.
func TestSharedCacheWaiterIgnoresLeaderCancel(t *testing.T) {
	for _, cancelErr := range []error{context.Canceled, fmt.Errorf("evaluating: %w", context.DeadlineExceeded)} {
		cache := newSharedCache(0)
		started := make(chan struct{})
		release := make(chan struct{})
		leaderErr := make(chan error, 1)
		go func() {
			_, _, _, err := cache.getOrCompute(&cache.structures, 0, "k", func() (any, error) {
				close(started)
				<-release
				return nil, cancelErr
			})
			leaderErr <- err
		}()
		<-started

		var waiterComputes atomic.Int64
		type outcome struct {
			v        any
			computed bool
			err      error
		}
		waiter := make(chan outcome, 1)
		go func() {
			v, computed, _, err := cache.getOrCompute(&cache.structures, 0, "k", func() (any, error) {
				waiterComputes.Add(1)
				return 42, nil
			})
			waiter <- outcome{v, computed, err}
		}()
		// Let the waiter park on the leader's flight before it fails.
		// Nothing signals the parking; a waiter that arrived late would
		// compute on its own and pass anyway, so the sleep only makes the
		// case under test the likely one.
		time.Sleep(20 * time.Millisecond)
		close(release)

		if err := <-leaderErr; !errors.Is(err, cancelErr) {
			t.Fatalf("leader err = %v, want %v", err, cancelErr)
		}
		got := <-waiter
		if got.err != nil || got.v != 42 || !got.computed {
			t.Fatalf("waiter after leader's %v: v=%v computed=%v err=%v, want its own 42", cancelErr, got.v, got.computed, got.err)
		}
		if n := waiterComputes.Load(); n != 1 {
			t.Fatalf("waiter computed %d times, want 1", n)
		}
		if v, ok := cache.lookup(&cache.structures, 0, "k"); !ok || v != 42 {
			t.Fatalf("waiter's value not cached: %v, %v", v, ok)
		}
	}
}

// TestSharedCacheLookupInFlight verifies Lookup never blocks on a
// computation in progress.
func TestSharedCacheLookupInFlight(t *testing.T) {
	cache := newSharedCache(0)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _, _ = cache.getOrCompute(&cache.structures, 0, "slow", func() (any, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	if _, ok := cache.lookup(&cache.structures, 0, "slow"); ok {
		t.Errorf("Lookup returned an in-flight computation")
	}
	close(release)
	<-done
	if v, ok := cache.lookup(&cache.structures, 0, "slow"); !ok || v.(int) != 1 {
		t.Errorf("Lookup after completion: %v, %v", v, ok)
	}
}

// The relation region's admission budget: relations are delivered to
// callers regardless, but once the resident-bytes budget is exhausted
// new ones are not retained, so the region cannot grow without bound.
func TestRelationRegionBudget(t *testing.T) {
	cache := newSharedCache(0)
	rel := pairs.RelationFromPairs(4, pairs.Pair{Src: 1, Dst: 2}, pairs.Pair{Src: 2, Dst: 3})

	val, computed, retained, err := cache.getOrCompute(&cache.relations, 0, "r1", func() (any, error) { return rel, nil })
	if err != nil || !computed || !retained || val.(*pairs.Relation) != rel {
		t.Fatalf("first admission: val=%v computed=%v retained=%v err=%v", val, computed, retained, err)
	}
	if cache.Counters().RelEntries != 1 || cache.relBytes.Load() != relationCost(rel) {
		t.Fatalf("after admission: RelEntries=%d relBytes=%d want %d", cache.Counters().RelEntries, cache.relBytes.Load(), relationCost(rel))
	}

	// Exhaust the budget; the next distinct relation is computed and
	// returned but not retained, and a retry recomputes.
	cache.relBytes.Store(relBudgetBytes)
	computes := 0
	for i := 0; i < 2; i++ {
		val, computed, retained, err = cache.getOrCompute(&cache.relations, 0, "r2", func() (any, error) {
			computes++
			return rel, nil
		})
		if err != nil || !computed || retained || val.(*pairs.Relation) != rel {
			t.Fatalf("over-budget call %d: computed=%v retained=%v err=%v", i, computed, retained, err)
		}
	}
	if computes != 2 {
		t.Fatalf("over-budget relation was retained: %d computes, want 2", computes)
	}
	if cache.Counters().RelEntries != 1 {
		t.Fatalf("RelEntries = %d, want 1 (only the admitted relation)", cache.Counters().RelEntries)
	}

	// The admitted entry still hits, and reports itself retained.
	_, computed, retained, _ = cache.getOrCompute(&cache.relations, 0, "r1", func() (any, error) { return nil, nil })
	if computed || !retained {
		t.Fatalf("admitted relation should still be cached: computed=%v retained=%v", computed, retained)
	}

}

// TestSharedCacheEpochRules pins the three epoch access rules and the
// advanceEpoch sweep, including relation-budget uncharging on a drop.
func TestSharedCacheEpochRules(t *testing.T) {
	cache := newSharedCache(0)
	if _, _, _, err := cache.getOrCompute(&cache.structures, 0, "k", func() (any, error) { return "v0", nil }); err != nil {
		t.Fatal(err)
	}
	rel := pairs.RelationFromPairs(4, pairs.Pair{Src: 1, Dst: 2}, pairs.Pair{Src: 2, Dst: 3})
	if _, _, _, err := cache.getOrCompute(&cache.relations, 0, "r", func() (any, error) { return rel, nil }); err != nil {
		t.Fatal(err)
	}
	if got := cache.relBytes.Load(); got != relationCost(rel) {
		t.Fatalf("relBytes = %d, want %d", got, relationCost(rel))
	}

	// Same epoch: hit, no recompute.
	v, computed, _, err := cache.getOrCompute(&cache.structures, 0, "k", func() (any, error) { return "nope", nil })
	if err != nil || computed || v.(string) != "v0" {
		t.Fatalf("same-epoch access = (%v, %v, %v)", v, computed, err)
	}

	// advanceEpoch keeps the structure and drops the relation,
	// uncharging its budget.
	if newEpoch := cache.advanceEpoch(0, func(region *cacheRegion, key string) bool {
		return region == &cache.structures && key == "k"
	}); newEpoch != 1 || cache.Counters().Epoch != 1 {
		t.Fatalf("epoch after advance = %d / %d, want 1", newEpoch, cache.Counters().Epoch)
	}
	if v, ok := cache.lookup(&cache.structures, 1, "k"); !ok || v.(string) != "v0" {
		t.Fatalf("kept entry = (%v, %v), want v0 at epoch 1", v, ok)
	}
	if _, ok := cache.lookup(&cache.structures, 0, "k"); ok {
		t.Fatal("Lookup returned a value across epochs")
	}
	if cache.Counters().RelEntries != 0 || cache.relBytes.Load() != 0 {
		t.Fatalf("dropped relation still resident: len=%d bytes=%d", cache.Counters().RelEntries, cache.relBytes.Load())
	}

	// Straggler (older epoch than the resident entry): computes
	// privately and must not evict the newer entry.
	v, computed, _, err = cache.getOrCompute(&cache.structures, 0, "k", func() (any, error) { return "vOld", nil })
	if err != nil || !computed || v.(string) != "vOld" {
		t.Fatalf("straggler access = (%v, %v, %v)", v, computed, err)
	}
	if v, ok := cache.lookup(&cache.structures, 1, "k"); !ok || v.(string) != "v0" {
		t.Fatalf("straggler evicted the newer entry: (%v, %v)", v, ok)
	}

	// Stale entry (installed at an old epoch by an in-flight laggard) is
	// lazily evicted by a newer reader.
	if _, _, _, err := cache.getOrCompute(&cache.structures, 0, "k2", func() (any, error) { return "old", nil }); err != nil {
		t.Fatal(err)
	}
	v, computed, _, err = cache.getOrCompute(&cache.structures, 1, "k2", func() (any, error) { return "new", nil })
	if err != nil || !computed || v.(string) != "new" {
		t.Fatalf("stale-eviction access = (%v, %v, %v)", v, computed, err)
	}
	if se := cache.Counters().StaleEvictions; se != 1 {
		t.Fatalf("StaleEvictions = %d, want 1", se)
	}
	if ce := cache.Counters().CrossEpochHits; ce != 0 {
		t.Fatalf("CrossEpochHits = %d, want 0", ce)
	}

	// Provenance guard: a late install at an epoch OLDER than the
	// updater's pre-update epoch must never be kept — the updater's
	// deltas describe only the fromEpoch graph, so a carry would smuggle
	// a multi-epoch-stale value into the new epoch.
	if _, _, _, err := cache.getOrCompute(&cache.structures, 0, "k3", func() (any, error) { return "twoBehind", nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cache.getOrCompute(&cache.structures, 1, "k4", func() (any, error) { return "oneBehind", nil }); err != nil {
		t.Fatal(err)
	}
	if newEpoch := cache.advanceEpoch(1, func(region *cacheRegion, key string) bool {
		if key == "k3" {
			t.Error("keep offered an entry older than fromEpoch")
		}
		return true // carry everything offered
	}); newEpoch != 2 {
		t.Fatalf("epoch = %d, want 2", newEpoch)
	}
	if _, ok := cache.lookup(&cache.structures, 2, "k3"); ok {
		t.Fatal("multi-epoch-stale entry survived the sweep")
	}
	if v, ok := cache.lookup(&cache.structures, 2, "k4"); !ok || v.(string) != "oneBehind" {
		t.Fatalf("fromEpoch entry not carried: (%v, %v)", v, ok)
	}
}

// TestSharedCacheEpochRulesCarryKeepsCharge: a relation kept across
// advanceEpoch stays resident under its original budget charge — no
// uncharge, no second admission — and is served at the new epoch
// without recomputing; dropping it later returns the charge exactly.
func TestSharedCacheEpochRulesCarryKeepsCharge(t *testing.T) {
	cache := newSharedCache(0)
	// Sources 0, 1 and 3 share the stored run {2, 3}: six pairs held in
	// 2 destinations, 4 handles and 3 run offsets (one block of sources,
	// so no block count).
	rel := pairs.RelationFromSharedRuns(4, []int32{1, 1, 0, 1}, []int32{0, 0, 2}, []graph.VID{2, 3})
	if _, _, _, err := cache.getOrCompute(&cache.relations, 0, "r", func() (any, error) { return rel, nil }); err != nil {
		t.Fatal(err)
	}
	charged := cache.relBytes.Load()
	if want := int64(4 * (2 + 4 + 3)); charged != want || relationCost(rel) != want {
		t.Fatalf("relBytes = %d, relationCost = %d, want %d column bytes", charged, relationCost(rel), want)
	}

	cache.advanceEpoch(0, func(region *cacheRegion, _ string) bool { return region == &cache.relations })
	if got := cache.relBytes.Load(); got != charged {
		t.Fatalf("resident bytes %d after the carry, want %d", got, charged)
	}
	val, computed, retained, err := cache.getOrCompute(&cache.relations, 1, "r", func() (any, error) {
		t.Error("carried relation recomputed")
		return nil, nil
	})
	if err != nil || computed || !retained || val != any(rel) {
		t.Fatalf("new-epoch access = (%p, computed %v, retained %v, %v), want the carried relation", val, computed, retained, err)
	}
	if v, ok := cache.lookup(&cache.relations, 1, "r"); !ok || v != any(rel) {
		t.Fatalf("LookupRelation at the new epoch = (%v, %v)", v, ok)
	}
	if _, ok := cache.lookup(&cache.relations, 0, "r"); ok {
		t.Fatal("LookupRelation served the carried entry at the old epoch")
	}

	cache.advanceEpoch(1, nil)
	if cache.Counters().RelEntries != 0 || cache.relBytes.Load() != 0 {
		t.Fatalf("dropped relation still resident: len=%d bytes=%d", cache.Counters().RelEntries, cache.relBytes.Load())
	}
	if cc := cache.Counters(); cc.CrossEpochHits != 0 {
		t.Fatalf("CrossEpochHits = %d, want 0", cc.CrossEpochHits)
	}
}

// assertLabelEntry checks that the relation region holds label query key
// at the engine's epoch, charged nothing, and aliasing the current
// graph's columns for the label.
func assertLabelEntry(t *testing.T, e *Engine, key string) *pairs.Relation {
	t.Helper()
	val, ok := e.Cache().lookup(&e.Cache().relations, e.Epoch(), key)
	if !ok {
		t.Fatalf("label relation %s not memoised at epoch %d", key, e.Epoch())
	}
	rel := val.(*pairs.Relation)
	if got := relationCost(rel); got != 0 {
		t.Errorf("label relation %s charged %d bytes, want 0", key, got)
	}
	offsets, targets := labelCSROf(e.Graph(), rpq.MustParse(key).(rpq.Label))
	relOffsets, relDsts := rel.CSR()
	if !sameArray(relOffsets, offsets) || !sameArray(relDsts, targets) {
		t.Errorf("label relation %s does not alias the graph at epoch %d", key, e.Epoch())
	}
	return rel
}

// TestLabelRelationChargesNothing: a label relation borrows the graph's
// columns, so the relation region holds it at zero bytes. An update that
// leaves the label alone carries the relation to the new epoch, where it
// still aliases the new graph version's columns: Freeze keeps an
// untouched label's columns. A touched label's relation is dropped and
// recomputed over the new columns.
func TestLabelRelationChargesNothing(t *testing.T) {
	e := New(labelRelGraph(3, 40, 160), Options{})
	for _, q := range []string{"a", "^b"} {
		if _, err := e.EvaluateQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	carried := assertLabelEntry(t, e, "a")
	assertLabelEntry(t, e, "^b")
	if got := e.Cache().relBytes.Load(); got != 0 {
		t.Fatalf("relation region charged %d bytes for label relations, want 0", got)
	}

	if _, err := e.ApplyUpdates([]GraphUpdate{InsertEdge(0, "b", 39), InsertEdge(39, "b", 0)}); err != nil {
		t.Fatal(err)
	}
	if rel := assertLabelEntry(t, e, "a"); rel != carried {
		t.Error("untouched label relation was not carried")
	}
	if _, ok := e.Cache().lookup(&e.Cache().relations, e.Epoch(), "^b"); ok {
		t.Fatal("touched label relation ^b was carried")
	}
	if _, err := e.EvaluateQuery("^b"); err != nil {
		t.Fatal(err)
	}
	assertLabelEntry(t, e, "^b")
	if got := e.Cache().relBytes.Load(); got != 0 {
		t.Fatalf("relation region charged %d bytes after the update, want 0", got)
	}
}
