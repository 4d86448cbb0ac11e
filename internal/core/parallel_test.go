package core

import (
	"fmt"
	"sync"
	"testing"

	"rtcshare/internal/datagen"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/workload"
)

// stressGraph draws a small RMAT graph with enough cycles that the
// closure sub-queries produce non-trivial SCC structure.
func stressGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	g, err := datagen.RMAT(datagen.RMATConfig{
		Vertices: 256,
		Edges:    1024,
		Labels:   4,
		Seed:     seed,
	})
	if err != nil {
		t.Fatalf("RMAT: %v", err)
	}
	return g
}

// stressBatch builds a query batch whose queries overlap on a small
// number of distinct closure sub-queries R — the sharing-heavy shape of
// the paper's workloads.
func stressBatch(t testing.TB, seed int64, sets, perSet int) ([]rpq.Expr, int) {
	t.Helper()
	cfg := workload.DefaultConfig(sets, seed)
	cfg.MaxRPQs = perSet
	ws, err := workload.GenerateOver([]string{"l0", "l1", "l2", "l3"}, cfg)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	var batch []rpq.Expr
	distinct := make(map[string]bool)
	for _, s := range ws {
		distinct[s.R.String()] = true
		batch = append(batch, s.Queries...)
	}
	return batch, len(distinct)
}

// TestEvaluateBatchParallelMatchesSerial is the core stress test: a
// sharing-heavy batch fanned over many workers must produce exactly the
// serial results, and the shared cache must have computed each distinct
// closure sub-query exactly once. Run under -race this exercises the
// singleflight, the stats locking, and the evaluator free lists.
func TestEvaluateBatchParallelMatchesSerial(t *testing.T) {
	g := stressGraph(t, 7)
	batch, distinctR := stressBatch(t, 11, 6, 8) // 48 queries over 6 R's

	for _, strategy := range []Strategy{RTCSharing, FullSharing} {
		t.Run(strategy.String(), func(t *testing.T) {
			serial := New(g, Options{Strategy: strategy})
			want, err := serial.EvaluateSet(batch)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}

			for _, workers := range []int{2, 4, 8} {
				par := New(g, Options{Strategy: strategy})
				got, err := par.EvaluateBatchParallel(batch, workers)
				if err != nil {
					t.Fatalf("parallel(%d): %v", workers, err)
				}
				for i := range want {
					if !got[i].Equal(want[i]) {
						t.Fatalf("parallel(%d): query %d (%s): %d pairs, want %d",
							workers, i, batch[i], got[i].Len(), want[i].Len())
					}
				}

				// Each distinct R computed exactly once despite the races.
				// Workload queries are Pre·R+·Post with label Pre/Post, so
				// every query is one closure clause and every structure
				// lookup is for one of the distinctR shared sub-queries.
				// Structure lookups happen once per DISTINCT query text:
				// a repeated text is answered from its memoised result
				// relation without touching the structure region.
				distinctQ := make(map[string]bool)
				for _, q := range batch {
					distinctQ[q.String()] = true
				}
				st := par.Stats()
				if st.Queries != len(batch) {
					t.Errorf("parallel(%d): merged Queries = %d, want %d", workers, st.Queries, len(batch))
				}
				if st.CacheMisses != distinctR {
					t.Errorf("parallel(%d): merged CacheMisses = %d, want %d (one per distinct R)",
						workers, st.CacheMisses, distinctR)
				}
				if want := len(distinctQ) - distinctR; st.CacheHits != want {
					t.Errorf("parallel(%d): merged CacheHits = %d, want %d (distinct queries %d - distinct R %d)",
						workers, st.CacheHits, want, len(distinctQ), distinctR)
				}
				if n := len(par.SharedSummaries()); n != distinctR {
					t.Errorf("parallel(%d): %d shared summaries, want %d", workers, n, distinctR)
				}
			}
		})
	}
}

// TestEvaluateBatchParallelNoSharing checks the baseline keeps its
// defining property under parallelism: nothing is reused, so the merged
// stats show one miss per closure clause evaluated.
func TestEvaluateBatchParallelNoSharing(t *testing.T) {
	g := stressGraph(t, 7)
	batch, _ := stressBatch(t, 11, 3, 6)

	serial := New(g, Options{Strategy: NoSharing})
	want, err := serial.EvaluateSet(batch)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	par := New(g, Options{Strategy: NoSharing})
	got, err := par.EvaluateBatchParallel(batch, 4)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("query %d: results differ", i)
		}
	}
	st := par.Stats()
	if st.CacheHits != 0 {
		t.Errorf("NoSharing cache hits = %d, want 0", st.CacheHits)
	}
	if st.CacheMisses != len(batch) {
		t.Errorf("NoSharing cache misses = %d, want %d (one per query)", st.CacheMisses, len(batch))
	}
	if cc := par.Cache().Counters(); cc.Misses != 0 || cc.Entries != 0 {
		t.Errorf("NoSharing populated the shared cache: %+v", cc)
	}
}

// TestConcurrentEvaluateOnOneEngine drives a single shared Engine from
// many goroutines — the server scenario — and checks results and the
// exactly-once invariant. This is the test that fails if any engine
// state (stats, summaries, evaluator scratch) is unprotected.
func TestConcurrentEvaluateOnOneEngine(t *testing.T) {
	g := stressGraph(t, 13)
	batch, distinctR := stressBatch(t, 17, 4, 8)

	serial := New(g, Options{})
	want, err := serial.EvaluateSet(batch)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}

	shared := New(g, Options{})
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(batch))
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each goroutine walks the whole batch from a different
			// offset, maximising same-R collisions.
			for i := 0; i < len(batch); i++ {
				j := (i + w*len(batch)/goroutines) % len(batch)
				res, err := shared.Evaluate(batch[j])
				if err != nil {
					errs <- fmt.Errorf("worker %d query %d: %w", w, j, err)
					return
				}
				if !res.Equal(want[j]) {
					errs <- fmt.Errorf("worker %d query %d (%s): %d pairs, want %d",
						w, j, batch[j], res.Len(), want[j].Len())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := shared.Stats()
	if st.Queries != goroutines*len(batch) {
		t.Errorf("Queries = %d, want %d", st.Queries, goroutines*len(batch))
	}
	if st.CacheMisses != distinctR {
		t.Errorf("CacheMisses = %d, want %d (each R computed once across %d goroutines)",
			st.CacheMisses, distinctR, goroutines)
	}
}

// TestForkedEnginesShareCache pins the Fork contract: a structure
// computed through one fork is a hit on its sibling, and both report it
// in their summaries.
func TestForkedEnginesShareCache(t *testing.T) {
	g := stressGraph(t, 19)
	parent := New(g, Options{})
	a, b := parent.Fork(), parent.Fork()

	if _, err := a.EvaluateQuery("l0.(l1.l2)+.l3"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.EvaluateQuery("l3.(l1.l2)+.l0"); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.CacheMisses != 1 || st.CacheHits != 0 {
		t.Errorf("fork a stats = %+v, want 1 miss / 0 hits", st)
	}
	if st := b.Stats(); st.CacheMisses != 0 || st.CacheHits != 1 {
		t.Errorf("fork b stats = %+v, want 0 misses / 1 hit", st)
	}
	for name, e := range map[string]*Engine{"a": a, "b": b} {
		sums := e.SharedSummaries()
		if len(sums) != 1 || sums[0].R != "l1.l2" {
			t.Errorf("fork %s summaries = %+v, want exactly R=l1.l2", name, sums)
		}
	}
}

// TestEvaluateBatchParallelErrors checks error propagation: a
// malformed query anywhere in the batch fails the whole call.
func TestEvaluateBatchParallelErrors(t *testing.T) {
	g := stressGraph(t, 23)
	e := New(g, Options{})
	if _, err := e.EvaluateQueriesParallel([]string{"l0", "l1.(", "l2"}, 2); err == nil {
		t.Fatal("parse error not propagated")
	}

	// A DNF blow-up inside Evaluate must also surface.
	tiny := New(g, Options{MaxDNFClauses: 1})
	qs := []rpq.Expr{rpq.MustParse("l0|l1"), rpq.MustParse("l0|l1"), rpq.MustParse("l2|l3")}
	if _, err := tiny.EvaluateBatchParallel(qs, 2); err == nil {
		t.Fatal("DNF limit error not propagated")
	}
}

// TestEvaluateBatchParallelDegenerate covers the serial fallbacks.
func TestEvaluateBatchParallelDegenerate(t *testing.T) {
	g := stressGraph(t, 29)
	e := New(g, Options{})
	if res, err := e.EvaluateBatchParallel(nil, 4); err != nil || res != nil {
		t.Fatalf("empty batch: %v, %v", res, err)
	}
	one := []rpq.Expr{rpq.MustParse("l0.(l1)+.l2")}
	res, err := e.EvaluateBatchParallel(one, 8)
	if err != nil || len(res) != 1 {
		t.Fatalf("single-query batch: %v, %v", res, err)
	}
	want, err := New(g, Options{}).Evaluate(one[0])
	if err != nil || !res[0].Equal(want) {
		t.Fatalf("single-query batch result differs: %v", err)
	}
}

// TestExplainNoSharingIgnoresSharedEntries pins the Explain fix: an
// engine that will never reuse structures must not report a sibling's
// cached entry as its own.
func TestExplainNoSharingIgnoresSharedEntries(t *testing.T) {
	g := stressGraph(t, 31)
	cache := NewSharedCache()
	warm := NewWithCache(g, Options{}, cache)
	if _, err := warm.EvaluateQuery("l0.(l1.l2)+.l3"); err != nil {
		t.Fatal(err)
	}

	cold := NewWithCache(g, Options{Strategy: NoSharing}, cache)
	plan, err := cold.ExplainQuery("l0.(l1.l2)+.l3")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Clauses[0].SharedCached {
		t.Errorf("NoSharing engine reports SharedCached=true, but evaluation will recompute")
	}

	// The sharing sibling does see it.
	plan, err = warm.Explain(rpq.MustParse("l0.(l1.l2)+.l3"))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Clauses[0].SharedCached {
		t.Errorf("sharing engine does not report the cached structure")
	}
}

// TestCacheHoldsOnlyStructures pins the region contract: the structure
// region retains exactly the compact closure structures (its Entries
// counter keeps meaning "structures"), while sub-query and result
// relations live in the separately counted relation region.
func TestCacheHoldsOnlyStructures(t *testing.T) {
	g := stressGraph(t, 37)
	e := New(g, Options{})
	if _, err := e.EvaluateQuery("l0.(l1.l2)+.l3"); err != nil {
		t.Fatal(err)
	}
	cc := e.Cache().Counters()
	if cc.Entries != 1 {
		t.Errorf("cache entries = %d, want 1 (the RTC only; sub-results are per-engine)", cc.Entries)
	}
	if _, ok := e.Cache().Lookup(0, nsRTC+"l1.l2"); !ok {
		t.Errorf("RTC for l1.l2 not in the cache")
	}

	// A fork shares the whole relation region: the repeated query is
	// answered from the memoised result relation, so the fork performs
	// no structure lookup at all.
	f := e.Fork()
	relHits := e.Cache().Counters().RelHits
	res, err := f.EvaluateQuery("l0.(l1.l2)+.l3")
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(g, Options{}).EvaluateQuery("l0.(l1.l2)+.l3")
	if err != nil || !res.Equal(want) {
		t.Fatalf("forked engine result differs: %v", err)
	}
	if st := f.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Errorf("fork stats = %+v, want no structure lookups (result relation reused)", st)
	}
	if got := e.Cache().Counters().RelHits; got <= relHits {
		t.Errorf("RelHits = %d, want > %d (fork served from the relation region)", got, relHits)
	}
}

// TestEvaluateBatchParallelRelMatchesSerial: the sealed-relation batch
// hook must return, pair for pair, what serial EvaluateRel returns, in
// input order, stamped with the engine's (unchanged) epoch.
func TestEvaluateBatchParallelRelMatchesSerial(t *testing.T) {
	g := stressGraph(t, 23)
	batch, _ := stressBatch(t, 29, 4, 6)

	serial := New(g, Options{})
	want := make([]*pairs.Relation, len(batch))
	for i, q := range batch {
		rel, err := serial.EvaluateRel(q)
		if err != nil {
			t.Fatalf("serial EvaluateRel: %v", err)
		}
		want[i] = rel
	}

	for _, workers := range []int{1, 4} {
		e := New(g, Options{})
		got, epoch, err := e.EvaluateBatchParallelRel(batch, workers)
		if err != nil {
			t.Fatalf("EvaluateBatchParallelRel(workers=%d): %v", workers, err)
		}
		if epoch != e.Epoch() {
			t.Fatalf("workers=%d: batch epoch %d, engine epoch %d", workers, epoch, e.Epoch())
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("workers=%d: query %d (%s) differs from serial", workers, i, batch[i])
			}
		}
	}
}

// TestEvaluateRelEpoch: the stamped epoch must track ApplyUpdates.
func TestEvaluateRelEpoch(t *testing.T) {
	g := stressGraph(t, 31)
	e := New(g, Options{})
	q := rpq.MustParse("l0+")

	rel0, epoch0, err := e.EvaluateRelEpoch(q)
	if err != nil {
		t.Fatal(err)
	}
	if epoch0 != e.Epoch() {
		t.Fatalf("epoch %d, engine %d", epoch0, e.Epoch())
	}
	if _, err := e.ApplyUpdates([]GraphUpdate{InsertEdge(0, "l0", 1), InsertEdge(1, "l0", 2)}); err != nil {
		t.Fatal(err)
	}
	rel1, epoch1, err := e.EvaluateRelEpoch(q)
	if err != nil {
		t.Fatal(err)
	}
	if epoch1 <= epoch0 {
		t.Fatalf("epoch did not advance: %d -> %d", epoch0, epoch1)
	}
	if !rel1.Contains(0, 2) {
		t.Fatalf("updated closure missing inserted path")
	}
	_ = rel0
}

// TestEvaluateBatchParallelRelError: parse-time-valid but failing
// queries (DNF bound) abort the batch with the error.
func TestEvaluateBatchParallelRelError(t *testing.T) {
	g := stressGraph(t, 37)
	e := New(g, Options{MaxDNFClauses: 1})
	qs := []rpq.Expr{rpq.MustParse("l0+"), rpq.MustParse("(l0|l1).(l2|l3)")}
	if _, _, err := e.EvaluateBatchParallelRel(qs, 2); err == nil {
		t.Fatal("expected DNF-bound error")
	}
	if out, _, err := e.EvaluateBatchParallelRel(nil, 2); err != nil || out != nil {
		t.Fatalf("empty batch: %v, %v", out, err)
	}
}
