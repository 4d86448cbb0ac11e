package core

import (
	"fmt"
	"strings"
	"time"

	"rtcshare/internal/graph"
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
// carried/dropped split is the observable form of the §9 carry-or-drop
// policy (the benchmark's core.carried/dropped).
type UpdateResult struct {
	// Epoch is the graph epoch after the batch (unchanged if the batch
	// was wholly ineffective).
	Epoch uint64
	// Inserted / Deleted count the effective edge changes (no-ops
	// excluded).
	Inserted, Deleted int

	// Carried counts closure structures moved to the new epoch untouched
	// (their sub-query mentions no updated label); Dropped counts the
	// rest, which the next query that needs them rebuilds.
	Carried, Dropped int
	// RelCarried / RelDropped are the same split for cached sub-query
	// relations.
	RelCarried, RelDropped int

	// MigrateTime is the wall-clock spent sweeping the cache; FreezeTime
	// the wall-clock spent freezing the new graph version.
	MigrateTime, FreezeTime time.Duration
}

// ApplyUpdates applies a batch of edge updates to the engine's graph:
// it mutates the engine's live mutable graph, freezes a new immutable
// graph version, advances the SharedCache to a new epoch — carrying
// every cached entry whose sub-query mentions no updated label and
// dropping the rest — and atomically swaps the engine onto the new
// version. Queries already in flight finish against the old version
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

	// Apply, keeping only the labels an effective change touched: the
	// sweep below carries exactly the entries that mention none of them.
	res := UpdateResult{Epoch: v.epoch}
	touched := make(map[string]bool)
	for _, u := range updates {
		var changed bool
		var err error
		switch u.Op {
		case OpInsertEdge:
			changed, err = e.live.InsertEdge(u.Src, u.Label, u.Dst)
			if changed {
				res.Inserted++
			}
		case OpDeleteEdge:
			changed, err = e.live.DeleteEdge(u.Src, u.Label, u.Dst)
			if changed {
				res.Deleted++
			}
		}
		if err != nil {
			return res, err
		}
		if changed {
			touched[u.Label] = true
		}
	}
	if res.Inserted+res.Deleted == 0 {
		return res, nil
	}

	t0 := time.Now()
	newG := e.live.Freeze()
	res.FreezeTime = time.Since(t0)

	t0 = time.Now()
	// Only entries computed at this engine's pre-update epoch are
	// offered — they are the ones the effective deltas describe;
	// anything older (straggler installs, diverged engines) is dropped
	// by the sweep itself.
	newEpoch := e.cache.AdvanceEpoch(v.epoch, func(region CacheRegion, key string) bool {
		return res.keep(region, key, touched)
	})
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

// keep decides one cached entry's fate across an epoch advance and
// counts it: the entry is carried iff its sub-query mentions no updated
// label — an RPQ result depends only on the adjacency of the labels it
// mentions — and dropped otherwise, to be rebuilt by the next query
// that needs it. Inserts drop too: rebuilding a structure on first use
// costs one Compute, less than patching it eagerly inside the update
// (DESIGN §9). It runs under a cache shard lock and must not call back
// into the cache.
func (res *UpdateResult) keep(region CacheRegion, key string, touched map[string]bool) bool {
	// A structure key is nsRTC or nsFull (each ending in '\x00') before
	// the sub-query text; a relation key is the bare text.
	if region == RegionStructure {
		_, key, _ = strings.Cut(key, "\x00")
	}
	expr, err := rpq.Parse(key)
	carried := err == nil
	if carried {
		for _, l := range rpq.Labels(expr) {
			if touched[l] {
				carried = false
				break
			}
		}
	}
	switch {
	case region == RegionRelation && carried:
		res.RelCarried++
	case region == RegionRelation:
		res.RelDropped++
	case carried:
		res.Carried++
	default:
		res.Dropped++
	}
	return carried
}
