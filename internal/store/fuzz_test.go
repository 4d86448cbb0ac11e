package store

import (
	"testing"

	"rtcshare/internal/core"
	"rtcshare/internal/fixtures"
)

// FuzzSnapshotLoad holds the loader to its contract: arbitrary bytes
// produce either a valid graph and epoch or an error — never a panic,
// and never an allocation not backed by input bytes. The seeds include
// a fully valid version-2 file, so mutation explores the deep decode
// paths (graph.FromFlat's CSR validation), not just header checks, and
// a version-1 header, which must be refused.
func FuzzSnapshotLoad(f *testing.F) {
	valid := encodeSnapshotFile(fixtures.Figure1(), 5)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})
	f.Add(snapshotHeaderOnly(1))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, epoch, err := decodeSnapshotFile(data)
		if err != nil {
			return
		}
		// The format has one encoding per graph and epoch, so whatever
		// decodes re-encodes to exactly the bytes it came from.
		if string(encodeSnapshotFile(g, epoch)) != string(data) {
			t.Fatal("decoded snapshot does not re-encode to its input")
		}
	})
}

// FuzzWALScan holds the log scanner to the same contract; whatever it
// accepts must re-encode to the same frames it scanned.
func FuzzWALScan(f *testing.F) {
	f.Add(encodeBatch(1, []core.GraphUpdate{core.InsertEdge(0, "a", 1), core.DeleteEdge(2, "b", 0)}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		batches, validLen := scanWAL(data)
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d out of range [0,%d]", validLen, len(data))
		}
		off := 0
		for _, b := range batches {
			rec := encodeBatch(b.Epoch, b.Updates)
			if off+len(rec) > int(validLen) || string(rec) != string(data[off:off+len(rec)]) {
				t.Fatal("accepted frames do not re-encode to the scanned bytes")
			}
			off += len(rec)
		}
		if int64(off) != validLen {
			t.Fatalf("frames cover %d bytes, validLen %d", off, validLen)
		}
	})
}
