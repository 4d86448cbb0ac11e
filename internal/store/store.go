// Package store makes an engine's graph durable so rpqd can restart
// without re-reading a text edge list: a versioned, checksummed binary
// snapshot of one graph epoch (the frozen graph's CSR columns and label
// dictionary, laid out as flat slabs loadable in a single read), plus a
// write-ahead log of epoch-tagged GraphUpdate batches with
// CRC-per-record framing, fsync on commit and a truncated-tail-tolerant
// reader. Recovery is load-snapshot + replay-WAL-tail: the engine starts
// at the snapshot's epoch with an empty cache, and the replayed batches
// advance it through the same epochs the live process went through, so
// the recovered graph and epoch are exactly the ones clients last saw.
// Shared structures are not persisted; they rebuild on first use.
//
// The Store interface keeps backends pluggable; Dir is the file-system
// backend (one snapshot file plus one log file in a directory, rotated
// atomically via temp-file + rename). Persistent wraps a core.Engine so
// every accepted batch is logged before it is applied, with optional
// automatic snapshot compaction every N batches. See DESIGN.md §11 for
// the formats and the recovery invariants.
package store

import (
	"errors"

	"rtcshare/internal/core"
	"rtcshare/internal/graph"
)

// ErrNoSnapshot is returned by Store.LoadSnapshot when the backend holds
// no snapshot yet — the cold-boot signal, distinct from a corrupt or
// unreadable snapshot (which is a real error: recovery must not silently
// fall back to an empty graph).
var ErrNoSnapshot = errors.New("store: no snapshot")

// LoggedBatch is one write-ahead-log record: the update batch and the
// graph epoch the engine is expected to reach by applying it. Under
// Persistent's log-before-apply discipline the epoch is predicted
// (current + 1) before the batch runs, so a batch that turns out wholly
// ineffective leaves a no-op record whose tag the engine never reaches;
// replay tolerates those (an ineffective batch is ineffective on replay
// too), and effective records still carry strictly increasing epochs.
type LoggedBatch struct {
	Epoch   uint64
	Updates []core.GraphUpdate
}

// Store is a persistence backend: one snapshot slot plus one append-only
// update log. Implementations are safe for concurrent use. The contract
// recovery depends on: WriteSnapshot atomically replaces the snapshot
// and then resets the log, in that order — a crash between the two
// leaves old-epoch records in the log, which ReplayBatches' afterEpoch
// filter skips.
type Store interface {
	// LoadSnapshot reads and decodes the current snapshot's graph and
	// epoch, or returns ErrNoSnapshot when none exists.
	LoadSnapshot() (*graph.Graph, uint64, error)
	// WriteSnapshot atomically replaces the snapshot with g at epoch and
	// resets the update log (records at epochs ≤ epoch are superseded).
	WriteSnapshot(g *graph.Graph, epoch uint64) error
	// AppendBatch durably appends one update batch tagged with the epoch
	// the engine reached by applying it; it returns only after the
	// record is committed (fsync).
	AppendBatch(epoch uint64, updates []core.GraphUpdate) error
	// ReplayBatches streams the logged batches with Epoch > afterEpoch,
	// in log order, stopping at fn's first error. A torn or corrupt tail
	// ends the stream silently: everything before it replays, the tail
	// is discarded (it was never acknowledged, or the medium lost it).
	ReplayBatches(afterEpoch uint64, fn func(LoggedBatch) error) error
	// Probe verifies the backend can commit again after a failure —
	// repairing any partial state a failed append or rotation left
	// behind (e.g. a torn WAL tail) and test-writing the medium. A nil
	// return means AppendBatch and WriteSnapshot may be retried; the
	// degradation ladder in Persistent calls this to re-arm updates.
	Probe() error
	// Stats reports the backend's size bookkeeping.
	Stats() Stats
	// Close releases the backend's resources.
	Close() error
}

// Stats is a Store's size and activity bookkeeping, served under
// /metrics by rpqd.
type Stats struct {
	// SnapshotBytes / SnapshotEpoch describe the current snapshot file
	// (zero when none exists).
	SnapshotBytes int64  `json:"snapshot_bytes"`
	SnapshotEpoch uint64 `json:"snapshot_epoch"`
	// SnapshotsWritten counts WriteSnapshot calls by this process.
	SnapshotsWritten int `json:"snapshots_written"`
	// WALRecords / WALBytes describe the current log tail (records since
	// the last snapshot rotation).
	WALRecords int   `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
}
