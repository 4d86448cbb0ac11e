package core

import (
	"fmt"
	"time"

	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
)

// UpdateOp is the kind of one GraphUpdate.
type UpdateOp int

const (
	// OpInsertEdge adds the labeled edge (Src, Label, Dst); inserting an
	// edge that already exists is an effective no-op.
	OpInsertEdge UpdateOp = iota
	// OpDeleteEdge removes the labeled edge; deleting a missing edge
	// (including one with an unknown label) is an effective no-op.
	OpDeleteEdge
)

func (op UpdateOp) String() string {
	switch op {
	case OpInsertEdge:
		return "insert"
	case OpDeleteEdge:
		return "delete"
	}
	return fmt.Sprintf("UpdateOp(%d)", int(op))
}

// GraphUpdate is one edge mutation of the engine's graph.
type GraphUpdate struct {
	Op    UpdateOp
	Src   graph.VID
	Label string
	Dst   graph.VID
}

// InsertEdge returns an insert update.
func InsertEdge(src graph.VID, label string, dst graph.VID) GraphUpdate {
	return GraphUpdate{Op: OpInsertEdge, Src: src, Label: label, Dst: dst}
}

// DeleteEdge returns a delete update.
func DeleteEdge(src graph.VID, label string, dst graph.VID) GraphUpdate {
	return GraphUpdate{Op: OpDeleteEdge, Src: src, Label: label, Dst: dst}
}

// UpdateResult reports what one ApplyUpdates batch did: the new graph
// epoch, the effective edge changes, and the fate of every cached
// structure and relation that existed at the old epoch — the
// carried/patched/dropped split is the observable form of the §9
// maintenance policy (the benchmark's core.carried/patched/dropped).
type UpdateResult struct {
	// Epoch is the graph epoch after the batch (unchanged if the batch
	// was wholly ineffective).
	Epoch uint64
	// Inserted / Deleted count the effective edge changes (no-ops
	// excluded).
	Inserted, Deleted int

	// Carried counts closure structures moved to the new epoch untouched
	// (their sub-query mentions no updated label); Patched counts
	// structures maintained incrementally (single-label closure bodies
	// under insert-only deltas); Dropped counts structures invalidated
	// for recompute-on-demand (deletes and multi-label hard cases — the
	// fallback half of the policy).
	Carried, Patched, Dropped int
	// RelCarried / RelDropped are the same split for cached sub-query
	// relations (relations are never patched: rebuilding one from the
	// new graph costs a single sub-query evaluation).
	RelCarried, RelDropped int

	// MigrateTime is the wall-clock spent sweeping and patching the
	// cache; FreezeTime the wall-clock spent freezing the new graph
	// version.
	MigrateTime, FreezeTime time.Duration
}

// ApplyUpdates applies a batch of edge updates to the engine's graph:
// it mutates the engine's live mutable graph, freezes a new immutable
// graph version, advances the SharedCache to a new epoch — deciding for
// every cached structure whether to carry it unchanged, patch it
// incrementally or drop it — and atomically swaps the engine onto the
// new version. Queries already in flight finish against the old version
// (and its structures, which the epoch rules keep them from mixing with
// new ones); queries started after the swap see the new graph.
//
// The batch is validated before anything mutates: an out-of-range
// endpoint or unknown op rejects the whole batch. A batch with no
// effective change (all no-ops) leaves the epoch alone.
//
// ApplyUpdates is serialised per engine; it may run concurrently with
// any number of evaluations.
func (e *Engine) ApplyUpdates(updates []GraphUpdate) (UpdateResult, error) {
	e.updMu.Lock()
	defer e.updMu.Unlock()

	v := e.version()
	if e.live == nil {
		e.live = graph.MutableFromGraph(v.g)
	}
	if err := validateUpdates(updates, graph.VID(e.live.NumVertices())); err != nil {
		return UpdateResult{Epoch: v.epoch}, err
	}

	// Apply, keeping only the effective deltas: the migration below
	// reasons about what actually changed per label.
	res := UpdateResult{Epoch: v.epoch}
	inserted := make(map[string][]pairs.Pair)
	deleted := make(map[string]bool)
	for _, u := range updates {
		switch u.Op {
		case OpInsertEdge:
			added, err := e.live.InsertEdge(u.Src, u.Label, u.Dst)
			if err != nil {
				return res, err
			}
			if added {
				inserted[u.Label] = append(inserted[u.Label], pairs.Pair{Src: u.Src, Dst: u.Dst})
				res.Inserted++
			}
		case OpDeleteEdge:
			removed, err := e.live.DeleteEdge(u.Src, u.Label, u.Dst)
			if err != nil {
				return res, err
			}
			if removed {
				deleted[u.Label] = true
				res.Deleted++
			}
		}
	}
	if res.Inserted+res.Deleted == 0 {
		return res, nil
	}

	t0 := time.Now()
	newG := e.live.Freeze()
	res.FreezeTime = time.Since(t0)

	touched := make(map[string]bool, len(inserted)+len(deleted))
	for l := range inserted {
		touched[l] = true
	}
	for l := range deleted {
		touched[l] = true
	}

	t0 = time.Now()
	// Only entries computed at this engine's pre-update epoch are
	// migrated — they are the ones the effective deltas describe;
	// anything older (straggler installs, diverged engines) is dropped
	// by the sweep itself.
	newEpoch, relDeclined := e.cache.AdvanceEpoch(v.epoch, func(region CacheRegion, key string, val any) (any, bool) {
		return e.migrateEntry(&res, region, key, val, touched, inserted, deleted)
	})
	// Relations the sweep could not actually retain (budget decline, or
	// a fresh new-epoch computation won the slot) move from carried to
	// dropped so the reported split matches what is resident.
	res.RelCarried -= relDeclined
	res.RelDropped += relDeclined
	res.MigrateTime = time.Since(t0)
	res.Epoch = newEpoch
	e.ver.Store(newEngineVersion(&e.engineShared, newG, newEpoch))
	return res, nil
}

// ValidateUpdates checks a batch against the engine's current vertex
// space and label rules without mutating anything — the same validation
// ApplyUpdates performs before touching the graph, exposed so a
// durability layer can reject a bad batch before logging it (the
// log-before-apply discipline of store.Persistent). The vertex space is
// fixed for an engine's lifetime, so a batch that validates now also
// validates inside a later ApplyUpdates.
func (e *Engine) ValidateUpdates(updates []GraphUpdate) error {
	return validateUpdates(updates, graph.VID(e.version().g.NumVertices()))
}

// validateUpdates rejects unknown ops, out-of-range endpoints and (for
// inserts) invalid labels. Insert labels are validated up front so a
// bad label rejects the whole batch before anything mutates (batch
// atomicity); deletes stay permissive — an uninsertable label is simply
// never present.
func validateUpdates(updates []GraphUpdate, n graph.VID) error {
	for i, u := range updates {
		if u.Op != OpInsertEdge && u.Op != OpDeleteEdge {
			return fmt.Errorf("core: update %d: unknown op %v", i, u.Op)
		}
		if u.Src < 0 || u.Src >= n || u.Dst < 0 || u.Dst >= n {
			return fmt.Errorf("core: update %d: edge (%d,%q,%d) out of range [0,%d)", i, u.Src, u.Label, u.Dst, n)
		}
		if u.Op == OpInsertEdge {
			if err := graph.ValidateLabel(u.Label); err != nil {
				return fmt.Errorf("core: update %d: %w", i, err)
			}
		}
	}
	return nil
}

// migrateEntry decides one cached entry's fate across an epoch advance.
// It runs outside the cache's shard locks (patching is O(closure
// pairs)) but under updMu; it must not call back into the cache.
func (e *Engine) migrateEntry(res *UpdateResult, region CacheRegion, key string, val any, touched map[string]bool, inserted map[string][]pairs.Pair, deleted map[string]bool) (any, bool) {
	switch region {
	case RegionRelation:
		// A memoised sub-query relation survives iff its expression
		// mentions no updated label; otherwise the next use re-evaluates
		// it against the new graph (one sub-query — no closure work).
		expr, err := rpq.Parse(key)
		if err == nil && labelsDisjoint(expr, touched) {
			res.RelCarried++
			return val, true
		}
		res.RelDropped++
		return nil, false

	case RegionStructure:
		switch sv := val.(type) {
		case *rtcValue:
			expr, err := rpq.Parse(sv.summary.R)
			if err != nil {
				break
			}
			if labelsDisjoint(expr, touched) {
				res.Carried++
				return val, true
			}
			if delta, ok := e.structureDelta(expr, inserted, deleted); ok {
				patched := sv.structure.InsertEdges(delta)
				res.Patched++
				return &rtcValue{
					structure: patched,
					summary: SharedSummary{
						R:                   sv.summary.R,
						SharedPairs:         patched.NumSharedPairs(),
						ReducedVertices:     patched.NumReducedVertices(),
						EdgeReducedVertices: patched.NumActiveVertices(),
						AvgSCCSize:          patched.Components().AverageSize(),
					},
				}, true
			}
		case *fullValue:
			expr, err := rpq.Parse(sv.summary.R)
			if err != nil {
				break
			}
			if labelsDisjoint(expr, touched) {
				res.Carried++
				return val, true
			}
			if delta, ok := e.structureDelta(expr, inserted, deleted); ok {
				patched := sv.closure.InsertEdges(delta)
				active := patched.NumActive()
				res.Patched++
				return &fullValue{
					closure: patched,
					summary: SharedSummary{
						R:                   sv.summary.R,
						SharedPairs:         patched.NumPairs(),
						ReducedVertices:     active,
						EdgeReducedVertices: active,
					},
				}, true
			}
		}
	}
	res.Dropped++
	return nil, false
}

// structureDelta maps the update batch onto G_R edge inserts for a
// closure body R, reporting whether incremental maintenance applies.
// The tractable case is a single-label R (by far the common closure
// body: R_G is exactly the label's edge relation, so a graph edge
// insert IS a G_R edge insert — reversed for an inverse label) with no
// effective delete of that label; everything else — deletes, and
// multi-label bodies whose R_G delta would need re-evaluating R — falls
// back to dropping the structure.
func (e *Engine) structureDelta(r rpq.Expr, inserted map[string][]pairs.Pair, deleted map[string]bool) ([]pairs.Pair, bool) {
	if e.opts.DisableIncremental {
		return nil, false
	}
	lbl, isLabel := r.(rpq.Label)
	if !isLabel || deleted[lbl.Name] {
		return nil, false
	}
	ins := inserted[lbl.Name]
	if !lbl.Inverse {
		return ins, true
	}
	rev := make([]pairs.Pair, len(ins))
	for i, p := range ins {
		rev[i] = pairs.Pair{Src: p.Dst, Dst: p.Src}
	}
	return rev, true
}

// labelsDisjoint reports whether none of expr's labels were touched by
// the update batch.
func labelsDisjoint(expr rpq.Expr, touched map[string]bool) bool {
	for _, l := range rpq.Labels(expr) {
		if touched[l] {
			return false
		}
	}
	return true
}
