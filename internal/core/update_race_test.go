package core

import (
	"math/rand"
	"sync"
	"testing"

	"rtcshare/internal/datagen"
	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// This file is the -race stress suite for dynamic updates: concurrent
// ApplyUpdates mutators interleaved with parallel readers on one shared
// cache. The correctness claim is linearizability at batch granularity:
// every EvaluateBatchParallel call returns results that all describe ONE
// graph epoch (never a torn mixture of pre- and post-update state), and
// no cached value is ever served across epochs.

// updateStressPlan pre-generates an RMAT graph, a deterministic sequence
// of guaranteed-effective insert batches, and the per-epoch reference
// oracles for a query list.
type updateStressPlan struct {
	g       *graph.Graph
	batches [][]GraphUpdate
	queries []rpq.Expr
	// oracle[k][i] is the reference result of queries[i] at epoch k
	// (after k update batches).
	oracle [][]*pairs.Set
}

func newUpdateStressPlan(t *testing.T, numBatches, batchSize int) *updateStressPlan {
	t.Helper()
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 64, Edges: 192, Labels: 3, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	p := &updateStressPlan{g: g}
	for _, q := range []string{"l0+", "l0+.l1", "l1.l0*", "l2|l0.l0"} {
		p.queries = append(p.queries, rpq.MustParse(q))
	}

	// Effective-by-construction insert batches: every edge drawn is
	// absent from the running mutable, so each batch advances the epoch
	// by exactly one and epoch k's graph is the replay of k batches.
	rng := rand.New(rand.NewSource(97))
	m := graph.MutableFromGraph(g)
	labels := []string{"l0", "l1", "l2"}
	snapshot := func() *graph.Graph { return m.Freeze() }
	graphs := []*graph.Graph{snapshot()}
	for b := 0; b < numBatches; b++ {
		var batch []GraphUpdate
		for len(batch) < batchSize {
			src, dst := graph.VID(rng.Intn(64)), graph.VID(rng.Intn(64))
			label := labels[rng.Intn(len(labels))]
			if added, err := m.InsertEdge(src, label, dst); err != nil {
				t.Fatal(err)
			} else if added {
				batch = append(batch, InsertEdge(src, label, dst))
			}
		}
		p.batches = append(p.batches, batch)
		graphs = append(graphs, snapshot())
	}
	for _, gk := range graphs {
		var row []*pairs.Set
		for _, q := range p.queries {
			row = append(row, eval.Reference(gk, q))
		}
		p.oracle = append(p.oracle, row)
	}
	return p
}

// epochOf returns the oracle epoch the results jointly match, or -1 for
// a torn read.
func (p *updateStressPlan) epochOf(results []*pairs.Set) int {
	for k, row := range p.oracle {
		match := true
		for i := range p.queries {
			if !results[i].Equal(row[i]) {
				match = false
				break
			}
		}
		if match {
			return k
		}
	}
	return -1
}

func TestApplyUpdatesStressParallelReaders(t *testing.T) {
	const (
		numBatches = 6
		batchSize  = 8
		readers    = 4
		readRounds = 10
	)
	plan := newUpdateStressPlan(t, numBatches, batchSize)

	engine := New(plan.g, Options{})

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		seen      []int // epochs observed by readers, for monotonic sanity
		torn      int
		evalErrs  []error
		updateErr error
	)

	// Mutator: applies every batch, interleaving with the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, batch := range plan.batches {
			if _, err := engine.ApplyUpdates(batch); err != nil {
				updateErr = err
				return
			}
		}
	}()

	// Readers: parallel batch evaluations whose joint result must
	// equal exactly one epoch's oracle.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < readRounds; round++ {
				results, err := engine.EvaluateBatchParallel(plan.queries, 2)
				if err != nil {
					mu.Lock()
					evalErrs = append(evalErrs, err)
					mu.Unlock()
					return
				}
				k := plan.epochOf(results)
				mu.Lock()
				if k < 0 {
					torn++
				} else {
					seen = append(seen, k)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if updateErr != nil {
		t.Fatalf("ApplyUpdates: %v", updateErr)
	}
	for _, err := range evalErrs {
		t.Errorf("evaluate: %v", err)
	}
	if torn > 0 {
		t.Errorf("%d torn reads (results matching no single epoch oracle)", torn)
	}
	if len(seen) == 0 {
		t.Fatal("readers observed nothing")
	}

	// After the dust settles the engine must sit at the final epoch
	// and answer with its oracle.
	final, err := engine.EvaluateBatchParallel(plan.queries, 2)
	if err != nil {
		t.Fatal(err)
	}
	if k := plan.epochOf(final); k != numBatches {
		t.Errorf("settled at oracle epoch %d, want %d", k, numBatches)
	}

	// No cached value may ever have crossed an epoch.
	if cc := engine.Cache().Counters(); cc.CrossEpochHits != 0 {
		t.Errorf("CrossEpochHits = %d, want 0", cc.CrossEpochHits)
	}
}

// TestApplyUpdatesConcurrentMutators hammers one engine with several
// goroutines applying disjoint insert batches; updMu serialises them,
// every batch must land, and the final graph must contain every edge.
func TestApplyUpdatesConcurrentMutators(t *testing.T) {
	g, err := datagen.RMAT(datagen.RMATConfig{Vertices: 48, Edges: 96, Labels: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	engine := New(g, Options{})

	const mutators = 4
	var wg sync.WaitGroup
	for mid := 0; mid < mutators; mid++ {
		wg.Add(1)
		go func(mid int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				// Disjoint per-mutator labels keep batches effective and
				// independent.
				label := "m" + string(rune('a'+mid))
				upd := []GraphUpdate{InsertEdge(graph.VID(i), label, graph.VID(i+1))}
				if _, err := engine.ApplyUpdates(upd); err != nil {
					t.Errorf("mutator %d: %v", mid, err)
					return
				}
				if _, err := engine.EvaluateQuery(label + "+"); err != nil {
					t.Errorf("mutator %d evaluate: %v", mid, err)
					return
				}
			}
		}(mid)
	}
	wg.Wait()

	final := engine.Graph()
	for mid := 0; mid < mutators; mid++ {
		label := "m" + string(rune('a'+mid))
		lid, ok := final.Dict().Lookup(label)
		if !ok {
			t.Fatalf("label %s missing from final graph", label)
		}
		for i := 0; i < 8; i++ {
			if !final.HasEdge(graph.VID(i), lid, graph.VID(i+1)) {
				t.Fatalf("final graph missing (%d,%s,%d)", i, label, i+1)
			}
		}
	}
	if cc := engine.Cache().Counters(); cc.CrossEpochHits != 0 {
		t.Fatalf("CrossEpochHits = %d, want 0", cc.CrossEpochHits)
	}
	assertOracle(t, engine, "ma+.mb?", "l0+")
}
