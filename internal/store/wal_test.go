package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rtcshare/internal/core"
)

func sampleBatches() []LoggedBatch {
	return []LoggedBatch{
		{Epoch: 1, Updates: []core.GraphUpdate{core.InsertEdge(0, "a", 1)}},
		{Epoch: 2, Updates: []core.GraphUpdate{
			core.InsertEdge(1, "b", 2),
			core.DeleteEdge(0, "a", 1),
		}},
		{Epoch: 3, Updates: []core.GraphUpdate{core.InsertEdge(2, "two words", 0)}},
	}
}

func encodeAll(batches []LoggedBatch) []byte {
	var buf bytes.Buffer
	for _, b := range batches {
		buf.Write(encodeBatch(b.Epoch, b.Updates))
	}
	return buf.Bytes()
}

func TestWALScanRoundTrip(t *testing.T) {
	want := sampleBatches()
	data := encodeAll(want)
	got, validLen := scanWAL(data)
	if validLen != int64(len(data)) {
		t.Fatalf("validLen = %d, want %d", validLen, len(data))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan round trip: got %+v, want %+v", got, want)
	}
}

func TestWALScanTornTail(t *testing.T) {
	want := sampleBatches()
	data := encodeAll(want)
	whole := encodeAll(want[:2])

	// Every truncation point inside the third record must surrender
	// exactly the first two batches and report the clean-prefix length.
	for cut := len(whole) + 1; cut < len(data); cut++ {
		got, validLen := scanWAL(data[:cut])
		if validLen != int64(len(whole)) {
			t.Fatalf("cut %d: validLen = %d, want %d", cut, validLen, len(whole))
		}
		if !reflect.DeepEqual(got, want[:2]) {
			t.Fatalf("cut %d: got %d batches, want 2", cut, len(got))
		}
	}
}

func TestWALScanCorruptRecord(t *testing.T) {
	want := sampleBatches()
	data := encodeAll(want)
	first := encodeAll(want[:1])

	// Flip one payload byte in the middle record: the scan keeps the
	// first record and discards the corrupt one and everything after it.
	cp := append([]byte(nil), data...)
	cp[len(first)+8] ^= 0xff
	got, validLen := scanWAL(cp)
	if validLen != int64(len(first)) {
		t.Fatalf("validLen = %d, want %d", validLen, len(first))
	}
	if !reflect.DeepEqual(got, want[:1]) {
		t.Fatalf("got %d batches, want 1", len(got))
	}

	// A record whose CRC matches but whose op byte is garbage is also
	// corruption: decodeBatch must refuse it. The encoder never emits
	// such a byte, so patch the op (payload offset 12: after u64 epoch
	// and u32 count) and recompute the checksum.
	bad := encodeBatch(9, []core.GraphUpdate{core.InsertEdge(0, "x", 1)})
	bad[8+12] = 5
	binary.LittleEndian.PutUint32(bad[4:], crc32.Checksum(bad[8:], castagnoli))
	got, validLen = scanWAL(bad)
	if len(got) != 0 || validLen != 0 {
		t.Fatalf("unknown op accepted: %d batches, validLen %d", len(got), validLen)
	}
}

func TestDirAppendReplayStats(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if _, _, err := d.LoadSnapshot(); err != ErrNoSnapshot {
		t.Fatalf("empty dir LoadSnapshot: %v, want ErrNoSnapshot", err)
	}

	want := sampleBatches()
	for _, b := range want {
		if err := d.AppendBatch(b.Epoch, b.Updates); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.WALRecords != 3 || s.WALBytes == 0 {
		t.Fatalf("stats after 3 appends: %+v", s)
	}

	var got []LoggedBatch
	if err := d.ReplayBatches(0, func(b LoggedBatch) error { got = append(got, b); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay: got %+v, want %+v", got, want)
	}

	// The afterEpoch filter is how replay skips records superseded by a
	// snapshot written just before a crash.
	got = nil
	if err := d.ReplayBatches(2, func(b LoggedBatch) error { got = append(got, b); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want[2:]) {
		t.Fatalf("replay after epoch 2: got %+v, want %+v", got, want[2:])
	}
}

func TestDirRepairsTornTailOnOpen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleBatches()
	for _, b := range want {
		if err := d.AppendBatch(b.Epoch, b.Updates); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()

	// Tear the tail mid-record, as a crash during an append would.
	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if s := d2.Stats(); s.WALRecords != 2 {
		t.Fatalf("after repair: %d records, want 2", s.WALRecords)
	}
	// Appends after a repair must land on the truncated boundary, not
	// after the torn garbage.
	if err := d2.AppendBatch(want[2].Epoch, want[2].Updates); err != nil {
		t.Fatal(err)
	}
	var got []LoggedBatch
	if err := d2.ReplayBatches(0, func(b LoggedBatch) error { got = append(got, b); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after repair+append: got %+v, want %+v", got, want)
	}
}

func TestDirSnapshotRotatesWAL(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for _, b := range sampleBatches() {
		if err := d.AppendBatch(b.Epoch, b.Updates); err != nil {
			t.Fatal(err)
		}
	}
	g, epoch := warmedEngine(t).GraphEpoch()
	if err := d.WriteSnapshot(g, epoch); err != nil {
		t.Fatal(err)
	}

	s := d.Stats()
	if s.WALRecords != 0 || s.WALBytes != 0 {
		t.Fatalf("WAL not reset by snapshot: %+v", s)
	}
	if s.SnapshotsWritten != 1 || s.SnapshotEpoch != epoch || s.SnapshotBytes == 0 {
		t.Fatalf("snapshot stats wrong: %+v", s)
	}
	if err := d.ReplayBatches(0, func(LoggedBatch) error {
		t.Fatal("rotated WAL still replays records")
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	gotG, gotEpoch, err := d.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if gotEpoch != epoch || gotG.NumEdges() != g.NumEdges() {
		t.Fatalf("loaded snapshot differs: epoch %d/%d", gotEpoch, epoch)
	}

	// The append fd must point at the fresh log.
	if err := d.AppendBatch(epoch+1, []core.GraphUpdate{core.InsertEdge(0, "a", 1)}); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := d.ReplayBatches(epoch, func(LoggedBatch) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("post-rotation append replayed %d records, want 1", n)
	}

	// A reopened Dir reports the resident snapshot's epoch from the
	// header alone.
	d.Close()
	d2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if s := d2.Stats(); s.SnapshotEpoch != epoch || s.WALRecords != 1 {
		t.Fatalf("reopened stats: %+v", s)
	}
}

// TestOpenDirErrors pins the open-time failure modes: a path blocked by
// a regular file, and a resident snapshot too corrupt to even read an
// epoch from.
func TestOpenDirErrors(t *testing.T) {
	base := t.TempDir()
	blocked := filepath.Join(base, "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(filepath.Join(blocked, "store")); err == nil {
		t.Error("OpenDir under a regular file succeeded")
	}

	// A garbage snapshot does not block opening (stats are best-effort);
	// the hard failure is LoadSnapshot's.
	dir := filepath.Join(base, "store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot.bin"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir with an unreadable snapshot header: %v", err)
	}
	defer d.Close()
	if got := d.Stats().SnapshotEpoch; got != 0 {
		t.Errorf("unreadable header yielded epoch %d, want 0", got)
	}
	if _, _, err := d.LoadSnapshot(); err == nil {
		t.Error("garbage snapshot loaded")
	}
}

// TestDirLoadSnapshotCorrupt pins that a valid header over a corrupted
// body surfaces as a load error, not a bad graph.
func TestDirLoadSnapshotCorrupt(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := warmedEngine(t)
	if err := d.WriteSnapshot(e.GraphEpoch()); err != nil {
		t.Fatal(err)
	}
	d.Close()

	path := filepath.Join(dir, "snapshot.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, _, err := d2.LoadSnapshot(); err == nil {
		t.Error("corrupted snapshot body loaded")
	}
}
