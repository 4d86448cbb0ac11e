package store

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/graph"
)

// ErrDegraded rejects updates while the engine is in read-only degraded
// mode: a WAL append or snapshot commit failed, so accepting further
// mutations would let the in-memory state run ahead of what the store
// can recover. Queries keep serving the last durable epoch; Probe
// re-arms updates once the store commits again. rpqd maps this to
// 503 + Retry-After.
var ErrDegraded = errors.New("store: degraded (read-only)")

// Options configures a Persistent engine's compaction policy.
type Options struct {
	// SnapshotEvery triggers an automatic snapshot after this many
	// effective update batches since the last snapshot, counting the log
	// tail replayed at boot; 0 means snapshots happen only on explicit
	// Snapshot calls (e.g. rpqd's /admin/snapshot and graceful shutdown).
	SnapshotEvery int
}

// Persistent wraps a core.Engine so every update batch is durably
// logged before it is applied (log-before-apply: a batch the store
// cannot commit never mutates memory, so the in-memory state never runs
// ahead of what a restart recovers), and the snapshot can be compacted
// on demand or every N batches. Reads (Evaluate, Explain, Metrics…) go
// straight to the embedded engine; only the mutation path is shadowed.
//
// Persistence failures degrade rather than crash: a failed WAL append
// or snapshot commit flips the wrapper into read-only degraded mode —
// ApplyUpdates returns ErrDegraded, queries keep serving the last
// durable epoch — until a successful Probe re-arms it.
type Persistent struct {
	*core.Engine

	store *Dir

	mu            sync.Mutex // serialises apply+log, snapshot and the degraded state
	snapshotEvery int
	sinceSnapshot int
	recovery      RecoveryInfo

	degraded        bool
	degradedReason  string
	degradedSince   time.Time
	walAppendErrors int
	snapshotErrors  int
	lastErr         string
}

// RecoveryInfo describes how the engine reached its boot state — served
// under /metrics and logged at rpqd startup.
type RecoveryInfo struct {
	// RestoredSnapshot is false on a cold boot (no snapshot existed; the
	// engine was seeded from a graph and an initial snapshot written).
	RestoredSnapshot bool   `json:"restored_snapshot"`
	SnapshotEpoch    uint64 `json:"snapshot_epoch"`
	// ReplayedBatches / ReplayedUpdates count the WAL tail replayed on
	// top of the snapshot.
	ReplayedBatches int `json:"replayed_batches"`
	ReplayedUpdates int `json:"replayed_updates"`
	// Epoch is the engine's graph epoch after recovery.
	Epoch uint64 `json:"epoch"`
	// LoadMillis is the wall-clock of the whole recovery (load + replay).
	LoadMillis float64 `json:"load_ms"`
}

// SnapshotInfo describes one written snapshot — the /admin/snapshot
// response body: the graph epoch it pinned, the file's size in bytes,
// and the wall-clock of the write.
type SnapshotInfo struct {
	Epoch      uint64  `json:"epoch"`
	Bytes      int64   `json:"bytes"`
	WallMillis float64 `json:"wall_ms"`
}

// PersistInfo is the persistence section of rpqd's /metrics.
type PersistInfo struct {
	Store                Stats        `json:"store"`
	BatchesSinceSnapshot int          `json:"batches_since_snapshot"`
	SnapshotEvery        int          `json:"snapshot_every"`
	Recovery             RecoveryInfo `json:"recovery"`

	// Degraded / DegradedReason / DegradedSince describe the read-only
	// ladder rung: set while a persistence failure has updates disabled,
	// cleared by a successful Probe.
	Degraded       bool      `json:"degraded"`
	DegradedReason string    `json:"degraded_reason,omitempty"`
	DegradedSince  time.Time `json:"degraded_since,omitzero"`
	// WALAppendErrors / SnapshotErrors count persistence failures over
	// the process lifetime; LastError is the most recent one's text.
	WALAppendErrors int    `json:"wal_append_errors"`
	SnapshotErrors  int    `json:"snapshot_errors"`
	LastError       string `json:"last_error,omitempty"`
}

// Open boots a Persistent engine from s. If s holds a snapshot, the
// engine starts over its graph at its epoch and the WAL tail (records
// past the snapshot's epoch) is replayed through the normal ApplyUpdates
// path, so the recovered graph and epoch are identical to an engine that
// lived through those batches; the cache starts empty and fills on
// demand. A snapshot that cannot be read — corrupt, or written in an
// older format version — is an error even when seed is non-nil: falling
// back to the seed would discard the log beside it. Without a snapshot
// this is a cold boot: seed must be non-nil, the engine starts from it,
// and an initial snapshot is written so the WAL has an anchor.
func Open(s *Dir, seed *graph.Graph, opts core.Options, popts Options) (*Persistent, RecoveryInfo, error) {
	start := time.Now()
	var info RecoveryInfo
	var eng *core.Engine

	g, epoch, err := s.LoadSnapshot()
	switch {
	case err == nil:
		eng = core.NewAtEpoch(g, epoch, opts)
		info.RestoredSnapshot = true
		info.SnapshotEpoch = epoch
		err = s.ReplayBatches(epoch, func(b LoggedBatch) error {
			res, err := eng.ApplyUpdates(b.Updates)
			if err != nil {
				return fmt.Errorf("store: replay epoch %d: %w", b.Epoch, err)
			}
			// Log-before-apply tags records with a predicted epoch, so a
			// batch that turned out wholly ineffective leaves a no-op
			// record whose tag the engine never reaches — ineffective on
			// replay too, and exempt from the divergence check.
			if res.Epoch != b.Epoch && res.Inserted+res.Deleted > 0 {
				return fmt.Errorf("store: replay diverged: batch logged at epoch %d, replay reached %d", b.Epoch, res.Epoch)
			}
			info.ReplayedBatches++
			info.ReplayedUpdates += len(b.Updates)
			return nil
		})
		if err != nil {
			return nil, info, err
		}
	case err == ErrNoSnapshot:
		if seed == nil {
			return nil, info, fmt.Errorf("store: empty store and no seed graph")
		}
		eng = core.New(seed, opts)
	default:
		return nil, info, err
	}

	// The replayed tail counts toward the auto-snapshot bound, so crash
	// cycles shorter than SnapshotEvery cannot grow the log without limit.
	p := &Persistent{Engine: eng, store: s, snapshotEvery: popts.SnapshotEvery, sinceSnapshot: info.ReplayedBatches}
	if !info.RestoredSnapshot {
		// Anchor the log: WAL epochs are relative to a snapshot epoch, so
		// a cold boot persists its seed state before accepting updates.
		if _, err := p.snapshotLocked(); err != nil {
			return nil, info, err
		}
	}
	info.Epoch = eng.Epoch()
	info.LoadMillis = float64(time.Since(start).Nanoseconds()) / 1e6
	p.recovery = info
	return p, info, nil
}

// ApplyUpdates shadows the engine's with the log-before-apply
// discipline: the batch is validated (so a malformed batch is rejected
// before it costs a log record), durably logged at the predicted epoch,
// and only then applied in memory. The orderings' guarantee is that
// memory never runs ahead of the log — a failed append leaves the
// engine exactly at its last durable state, flips the wrapper into
// read-only degraded mode, and the client's update was observably never
// accepted. A batch that turns out wholly ineffective leaves a no-op
// record in the log (the cost of predicting the epoch), which replay
// tolerates.
func (p *Persistent) ApplyUpdates(updates []core.GraphUpdate) (core.UpdateResult, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	epoch := p.Engine.Epoch()
	if p.degraded {
		return core.UpdateResult{Epoch: epoch}, fmt.Errorf("%w: %s", ErrDegraded, p.degradedReason)
	}
	if err := p.Engine.ValidateUpdates(updates); err != nil {
		return core.UpdateResult{Epoch: epoch}, err
	}
	if err := p.store.AppendBatch(epoch+1, updates); err != nil {
		p.walAppendErrors++
		p.degradeLocked("wal append failed", err)
		return core.UpdateResult{Epoch: epoch}, fmt.Errorf("store: update rejected, not logged (now degraded): %w", err)
	}
	res, err := p.Engine.ApplyUpdates(updates)
	if err != nil {
		// Validation passed, so this is an engine invariant failure; the
		// logged record is at worst a no-op on replay of the same state.
		return res, err
	}
	if res.Inserted+res.Deleted == 0 {
		return res, nil
	}
	p.sinceSnapshot++
	if p.snapshotEvery > 0 && p.sinceSnapshot >= p.snapshotEvery {
		if _, err := p.snapshotLocked(); err != nil {
			return res, fmt.Errorf("store: batch logged and applied but auto-snapshot failed (now degraded): %w", err)
		}
	}
	return res, nil
}

// Snapshot writes the engine's current graph and epoch as the new
// snapshot and resets the log.
func (p *Persistent) Snapshot() (SnapshotInfo, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshotLocked()
}

func (p *Persistent) snapshotLocked() (SnapshotInfo, error) {
	start := time.Now()
	g, epoch := p.Engine.GraphEpoch()
	if err := p.store.WriteSnapshot(g, epoch); err != nil {
		p.snapshotErrors++
		p.degradeLocked("snapshot commit failed", err)
		return SnapshotInfo{}, err
	}
	p.sinceSnapshot = 0
	return SnapshotInfo{
		Epoch:      epoch,
		Bytes:      p.store.Stats().SnapshotBytes,
		WallMillis: float64(time.Since(start).Nanoseconds()) / 1e6,
	}, nil
}

// degradeLocked enters read-only degraded mode (idempotently) and
// records the failure. Callers hold p.mu.
func (p *Persistent) degradeLocked(reason string, err error) {
	p.lastErr = err.Error()
	if p.degraded {
		return
	}
	p.degraded = true
	p.degradedReason = reason
	p.degradedSince = time.Now()
}

// Degraded reports whether updates are disabled, with the reason and
// the time the ladder rung was entered.
func (p *Persistent) Degraded() (degraded bool, reason string, since time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.degraded, p.degradedReason, p.degradedSince
}

// Probe asks the store whether it can commit again and, when it can,
// re-arms updates. It is cheap when not degraded (no I/O) so a periodic
// caller — rpqd's probe loop — can run it unconditionally. It returns
// the store's verdict; a nil return means updates are (or already were)
// enabled.
func (p *Persistent) Probe() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.degraded {
		return nil
	}
	if err := p.store.Probe(); err != nil {
		p.lastErr = err.Error()
		return err
	}
	p.degraded = false
	p.degradedReason = ""
	p.degradedSince = time.Time{}
	return nil
}

// Recovery reports how this engine booted.
func (p *Persistent) Recovery() RecoveryInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recovery
}

// Metrics reports the persistence state served under /metrics.
func (p *Persistent) Metrics() PersistInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PersistInfo{
		Store:                p.store.Stats(),
		BatchesSinceSnapshot: p.sinceSnapshot,
		SnapshotEvery:        p.snapshotEvery,
		Recovery:             p.recovery,
		Degraded:             p.degraded,
		DegradedReason:       p.degradedReason,
		DegradedSince:        p.degradedSince,
		WALAppendErrors:      p.walAppendErrors,
		SnapshotErrors:       p.snapshotErrors,
		LastError:            p.lastErr,
	}
}

// Close releases the underlying store. The engine itself needs no
// teardown; callers wanting a final snapshot call Snapshot first (rpqd
// does, on graceful shutdown).
func (p *Persistent) Close() error {
	return p.store.Close()
}
