package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"rtcshare/internal/core"
	"rtcshare/internal/graph"
)

const (
	snapshotFile = "snapshot.bin"
	walFile      = "wal.log"
)

// Dir is the store: one directory holding snapshot.bin and wal.log,
// safe for concurrent use. Appends go through a single O_APPEND
// descriptor and fsync before returning; snapshots are written to a
// temp file, synced, and renamed over the old one, then the log is
// rotated the same way — the directory itself is fsynced after each
// rename so the swap survives a power cut. A torn tail found at open time is truncated away before
// any new record is appended behind it; a tail torn by a failed append
// at runtime marks the log dirty, and the next append or Probe truncates
// back to the last acknowledged record before writing anything new.
type Dir struct {
	dir string
	inj *Injector // optional fault injection; nil in production

	mu       sync.Mutex
	wal      *os.File
	walDirty bool // last append failed; tail may hold garbage
	stats    Stats
}

// OpenDir opens (creating if needed) a store directory, repairing any
// torn WAL tail left by a crash mid-append.
func OpenDir(dir string) (*Dir, error) {
	return OpenDirFaulty(dir, nil)
}

// OpenDirFaulty is OpenDir with an Injector wired into the directory's
// write, sync and rename sites — the fault-injection entry point the
// rotation-invariant tests and the chaos property test use. inj may be
// nil, which is exactly OpenDir. The open itself is never injected:
// faults model a failing medium under a running store, not a store that
// cannot even be opened.
func OpenDirFaulty(dir string, inj *Injector) (*Dir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	d := &Dir{dir: dir, inj: inj}

	if data, err := os.ReadFile(d.path(snapshotFile)); err == nil {
		d.stats.SnapshotBytes = int64(len(data))
		if epoch, err := snapshotFileEpoch(data); err == nil {
			d.stats.SnapshotEpoch = epoch
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}

	walPath := d.path(walFile)
	if data, err := os.ReadFile(walPath); err == nil {
		batches, validLen := scanWAL(data)
		if validLen < int64(len(data)) {
			if err := os.Truncate(walPath, validLen); err != nil {
				return nil, fmt.Errorf("store: repair wal tail: %w", err)
			}
		}
		d.stats.WALRecords = len(batches)
		d.stats.WALBytes = validLen
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}

	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	d.wal = f
	return d, nil
}

func (d *Dir) path(name string) string { return filepath.Join(d.dir, name) }

// fileWrite, fileSync and fileRename are the directory's injectable
// file operations: with no injector they are the direct calls, with one
// they consult it first. An injected short write really writes the
// first half of the buffer before failing, so torn-tail repair is
// exercised against genuine torn tails.
func (d *Dir) fileWrite(f *os.File, b []byte) (int, error) {
	if d.inj != nil {
		if fail, short := d.inj.should(OpWrite); fail {
			if short && len(b) > 1 {
				n, _ := f.Write(b[:len(b)/2])
				return n, fmt.Errorf("store: short write (%d of %d bytes): %w", n, len(b), ErrInjected)
			}
			return 0, fmt.Errorf("store: write: %w", ErrInjected)
		}
	}
	return f.Write(b)
}

func (d *Dir) fileSync(f *os.File) error {
	if d.inj != nil {
		if fail, _ := d.inj.should(OpSync); fail {
			return fmt.Errorf("store: sync: %w", ErrInjected)
		}
	}
	return f.Sync()
}

func (d *Dir) fileRename(oldpath, newpath string) error {
	if d.inj != nil {
		if fail, _ := d.inj.should(OpRename); fail {
			return fmt.Errorf("store: rename: %w", ErrInjected)
		}
	}
	return os.Rename(oldpath, newpath)
}

// LoadSnapshot reads and decodes the current snapshot's graph and
// epoch, or returns ErrNoSnapshot when none exists.
func (d *Dir) LoadSnapshot() (*graph.Graph, uint64, error) {
	data, err := os.ReadFile(d.path(snapshotFile))
	if os.IsNotExist(err) {
		return nil, 0, ErrNoSnapshot
	}
	if err != nil {
		return nil, 0, fmt.Errorf("store: read snapshot: %w", err)
	}
	return decodeSnapshotFile(data)
}

// WriteSnapshot atomically replaces the snapshot with g at epoch and
// then resets the log, in that order: temp + sync + rename for the
// snapshot, then the same dance for the log. A crash between the two
// renames leaves superseded records (epochs ≤ the new snapshot's) in the log;
// ReplayBatches' epoch filter skips them, so the window is safe. A
// failure anywhere leaves the previous snapshot intact (the rename is
// the commit point) and, if the rotation was reached, marks the log for
// repair — the old records it may still hold are superseded by the
// snapshot already committed.
func (d *Dir) WriteSnapshot(g *graph.Graph, epoch uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()

	data := encodeSnapshotFile(g, epoch)
	if err := d.atomicWrite(snapshotFile, data); err != nil {
		return err
	}
	d.stats.SnapshotBytes = int64(len(data))
	d.stats.SnapshotEpoch = epoch
	d.stats.SnapshotsWritten++

	return d.rotateWALLocked()
}

// rotateWALLocked swaps in an empty log and reopens the append
// descriptor. On failure the log is marked dirty and repaired by the
// next append or Probe; the stats are only reset once the empty file is
// really in place, so the repair path can trust stats.WALBytes as the
// acknowledged prefix length.
func (d *Dir) rotateWALLocked() error {
	if d.wal != nil {
		if err := d.wal.Close(); err != nil {
			d.wal = nil
			d.walDirty = true
			return fmt.Errorf("store: rotate wal: %w", err)
		}
		d.wal = nil
	}
	if err := d.atomicWrite(walFile, nil); err != nil {
		d.walDirty = true
		return err
	}
	d.stats.WALRecords = 0
	d.stats.WALBytes = 0
	f, err := os.OpenFile(d.path(walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		d.walDirty = true
		return fmt.Errorf("store: rotate wal: %w", err)
	}
	d.wal = f
	d.walDirty = false
	return nil
}

// atomicWrite replaces dir/name with data via temp file + fsync +
// rename + directory fsync. Must be called with d.mu held.
func (d *Dir) atomicWrite(name string, data []byte) error {
	tmp, err := os.CreateTemp(d.dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: write %s: %w", name, err)
	}
	tmpName := tmp.Name()
	cleanup := func() { os.Remove(tmpName) }
	if _, err := d.fileWrite(tmp, data); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("store: write %s: %w", name, err)
	}
	if err := d.fileSync(tmp); err != nil {
		tmp.Close()
		cleanup()
		return fmt.Errorf("store: sync %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("store: close %s: %w", name, err)
	}
	if err := d.fileRename(tmpName, d.path(name)); err != nil {
		cleanup()
		return fmt.Errorf("store: rename %s: %w", name, err)
	}
	return d.syncDir()
}

// syncDir fsyncs the directory so a completed rename is durable.
func (d *Dir) syncDir() error {
	f, err := os.Open(d.dir)
	if err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	defer f.Close()
	if err := d.fileSync(f); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}

// AppendBatch durably appends one update batch tagged with the epoch
// the engine reaches by applying it: one framed record, fsynced before
// return. A failed write or sync truncates the log back to the last
// acknowledged record before the error is returned, so a rejected batch
// never replays after a restart. If that repair fails too, the tail
// stays dirty and the next append (or Probe) repairs it before writing
// anything new, so garbage from a short write never gets a valid record
// appended behind it.
func (d *Dir) AppendBatch(epoch uint64, updates []core.GraphUpdate) error {
	rec := encodeBatch(epoch, updates)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.ensureWALLocked(); err != nil {
		return err
	}
	if _, err := d.fileWrite(d.wal, rec); err != nil {
		d.walDirty = true
		_ = d.ensureWALLocked() // a failed repair leaves the tail dirty for the next append or Probe
		return fmt.Errorf("store: append wal: %w", err)
	}
	if err := d.fileSync(d.wal); err != nil {
		d.walDirty = true
		_ = d.ensureWALLocked() // a failed repair leaves the tail dirty for the next append or Probe
		return fmt.Errorf("store: sync wal: %w", err)
	}
	d.stats.WALRecords++
	d.stats.WALBytes += int64(len(rec))
	return nil
}

// ensureWALLocked repairs the append descriptor and the log tail after
// a failed append or rotation. The file is truncated back to the last
// acknowledged record: a record that was fully written but whose append
// reported failure must not survive — a restart would replay a batch
// the running engine never applied, diverging the recovered state from
// the one clients observed.
func (d *Dir) ensureWALLocked() error {
	if d.wal != nil && !d.walDirty {
		return nil
	}
	if d.wal != nil {
		d.wal.Close()
		d.wal = nil
	}
	walPath := d.path(walFile)
	data, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: repair wal tail: %w", err)
	}
	_, validLen := scanWAL(data)
	good := validLen
	if d.stats.WALBytes < good {
		// Complete but unacknowledged records fall off here; a shorter
		// file than the bookkeeping (an interrupted rotation already
		// swapped in the fresh log) adopts the file's own valid length.
		good = d.stats.WALBytes
	}
	if good < int64(len(data)) {
		if err := os.Truncate(walPath, good); err != nil {
			return fmt.Errorf("store: repair wal tail: %w", err)
		}
	}
	batches, _ := scanWAL(data[:good])
	d.stats.WALRecords = len(batches)
	d.stats.WALBytes = good
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen wal: %w", err)
	}
	d.wal = f
	d.walDirty = false
	return nil
}

// Probe verifies the directory can commit again after a failure: it
// repairs the log tail if a failure left it dirty, then verifies the
// medium accepts the same write-sync-rename operations the commit paths
// need. A nil return means AppendBatch and WriteSnapshot may be
// retried; Persistent's degradation ladder calls it to re-arm updates.
// The probe file goes through the injectable operations, so an armed
// injector keeps the probe failing, and the ladder stays down.
func (d *Dir) Probe() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.ensureWALLocked(); err != nil {
		return err
	}
	f, err := os.CreateTemp(d.dir, "probe-*")
	if err != nil {
		return fmt.Errorf("store: probe: %w", err)
	}
	name := f.Name()
	defer os.Remove(name)
	if _, err := d.fileWrite(f, []byte("probe")); err != nil {
		f.Close()
		return fmt.Errorf("store: probe: %w", err)
	}
	if err := d.fileSync(f); err != nil {
		f.Close()
		return fmt.Errorf("store: probe: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: probe: %w", err)
	}
	probed := name + ".ok"
	if err := d.fileRename(name, probed); err != nil {
		return fmt.Errorf("store: probe: %w", err)
	}
	os.Remove(probed)
	return nil
}

// ReplayBatches streams the logged batches with Epoch > afterEpoch, in
// log order, stopping at fn's first error. It re-reads the log from
// disk, so a fresh process replays exactly what survived; a torn or
// corrupt tail ends the stream silently (it was never acknowledged, or
// the medium lost it).
func (d *Dir) ReplayBatches(afterEpoch uint64, fn func(LoggedBatch) error) error {
	data, err := os.ReadFile(d.path(walFile))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read wal: %w", err)
	}
	batches, _ := scanWAL(data)
	for _, b := range batches {
		if b.Epoch <= afterEpoch {
			continue
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// Stats reports the directory's size bookkeeping.
func (d *Dir) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Close releases the log's file descriptor.
func (d *Dir) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal == nil {
		return nil
	}
	err := d.wal.Close()
	d.wal = nil
	return err
}
