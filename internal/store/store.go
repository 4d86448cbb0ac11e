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
// Dir is the store: one snapshot file plus one log file in a directory,
// rotated atomically via temp-file + rename. Persistent wraps a
// core.Engine so every accepted batch is logged before it is applied,
// with optional automatic snapshot compaction every N batches. See
// DESIGN.md §11 for the formats and the recovery invariants.
package store

import (
	"errors"

	"rtcshare/internal/core"
)

// ErrNoSnapshot is returned by Dir.LoadSnapshot when the directory holds
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

// Stats is a Dir's size and activity bookkeeping, served under
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
