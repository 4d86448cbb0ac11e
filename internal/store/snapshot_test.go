package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtcshare/internal/core"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

// warmQueries drives a fixed workload through an engine so its cache
// holds RTCs and sealed relations — none of which a snapshot carries.
var warmQueries = []string{"b.c", "d.(b.c)+.c", "(b.c)*", "a.(e.f)*"}

func warmedEngine(t *testing.T) *core.Engine {
	t.Helper()
	e := core.New(fixtures.Figure1(), core.Options{})
	for _, q := range warmQueries {
		if _, err := e.EvaluateRel(rpq.MustParse(q)); err != nil {
			t.Fatalf("warm %q: %v", q, err)
		}
	}
	return e
}

// sameAnswers asserts two engines answer the warm workload identically.
func sameAnswers(t *testing.T, want, got *core.Engine) {
	t.Helper()
	for _, q := range warmQueries {
		w, err := want.EvaluateRel(rpq.MustParse(q))
		if err != nil {
			t.Fatalf("oracle %q: %v", q, err)
		}
		g, err := got.EvaluateRel(rpq.MustParse(q))
		if err != nil {
			t.Fatalf("restored %q: %v", q, err)
		}
		if !w.Equal(g) {
			t.Fatalf("query %q: restored engine answers differ (want %d pairs, got %d)", q, w.Len(), g.Len())
		}
	}
}

// snapshotHeaderOnly builds a 32-byte header declaring version and an
// empty, correctly checksummed body.
func snapshotHeaderOnly(version uint32) []byte {
	b := []byte(snapshotMagic)
	b = binary.LittleEndian.AppendUint32(b, version)
	b = binary.LittleEndian.AppendUint64(b, 3)
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(nil, castagnoli))
	return binary.LittleEndian.AppendUint64(b, 0)
}

func TestSnapshotRoundTrip(t *testing.T) {
	e := warmedEngine(t)
	if _, err := e.ApplyUpdates([]core.GraphUpdate{core.InsertEdge(0, "b", 9)}); err != nil {
		t.Fatal(err)
	}
	g, epoch := e.GraphEpoch()

	got, gotEpoch, err := decodeSnapshotFile(encodeSnapshotFile(g, epoch))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotEpoch != epoch {
		t.Fatalf("epoch: want %d, got %d", epoch, gotEpoch)
	}
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("graph shape changed: want %d/%d, got %d/%d",
			g.NumVertices(), g.NumEdges(), got.NumVertices(), got.NumEdges())
	}

	restored := core.NewAtEpoch(got, gotEpoch, core.Options{})
	if restored.Epoch() != e.Epoch() {
		t.Fatalf("restored epoch %d, want %d", restored.Epoch(), e.Epoch())
	}
	sameAnswers(t, e, restored)
	// Nothing was carried over: the restored engine built every
	// structure it used, at its own epoch.
	c := restored.Cache().Counters()
	if c.Misses == 0 {
		t.Fatal("restored engine served the warm workload without building a structure")
	}
	if c.CrossEpochHits != 0 {
		t.Fatalf("CrossEpochHits = %d after restore, want 0", c.CrossEpochHits)
	}
}

// TestSnapshotHoldsOnlyTheGraph: a warm cache does not change a single
// byte of the snapshot.
func TestSnapshotHoldsOnlyTheGraph(t *testing.T) {
	cold := core.New(fixtures.Figure1(), core.Options{})
	warm := warmedEngine(t)
	if a, b := encodeSnapshotFile(cold.GraphEpoch()), encodeSnapshotFile(warm.GraphEpoch()); string(a) != string(b) {
		t.Fatalf("warm snapshot is %d bytes, cold %d: the cache leaked into the file", len(b), len(a))
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	e := warmedEngine(t)
	a := encodeSnapshotFile(e.GraphEpoch())
	b := encodeSnapshotFile(e.GraphEpoch())
	if string(a) != string(b) {
		t.Fatal("same state encoded to different bytes")
	}
}

// TestSnapshotBytesIgnoreBuiltReverses: a snapshot carries every
// label's reverse columns whether or not the graph has built them. Two
// graphs over the same edges, one with every reverse read and one with
// none, encode to the same bytes, and encoding builds nothing: the
// graph's ColumnBytes stay as they were.
func TestSnapshotBytesIgnoreBuiltReverses(t *testing.T) {
	unbuilt, built := fixtures.Figure1(), fixtures.Figure1()
	for l := range built.NumLabels() {
		built.LabelCSR(graph.LID(l), true)
	}
	before := unbuilt.ColumnBytes()
	if built.ColumnBytes() <= before {
		t.Fatalf("reading every reverse left ColumnBytes at %d, the unbuilt graph's %d", built.ColumnBytes(), before)
	}
	a, b := encodeSnapshotFile(unbuilt, 3), encodeSnapshotFile(built, 3)
	if string(a) != string(b) {
		t.Fatalf("the unbuilt graph encodes to %d bytes, the built one to %d: they differ", len(a), len(b))
	}
	if got := unbuilt.ColumnBytes(); got != before {
		t.Fatalf("writing a snapshot moved ColumnBytes from %d to %d", before, got)
	}
	got, _, err := decodeSnapshotFile(a)
	if err != nil {
		t.Fatal(err)
	}
	if got.ColumnBytes() != before {
		t.Fatalf("a loaded snapshot holds %d column bytes, want the forward columns' %d", got.ColumnBytes(), before)
	}
}

// TestSnapshotOddLabels: the text format (graph.Write) refuses labels
// with whitespace or a leading '#', but the binary snapshot must carry
// them verbatim — they are legal in-memory labels reachable via
// AddEdgeLID.
func TestSnapshotOddLabels(t *testing.T) {
	odd := []string{"# comment-ish", "two words", "tab\tsep", " lead", "trail ", "%w"}
	b := graph.NewBuilder(4)
	for i, l := range odd {
		if err := graph.ValidateLabel(l); err == nil {
			t.Fatalf("label %q unexpectedly passes text-format validation", l)
		}
		lid := b.Dict().Intern(l)
		if err := b.AddEdgeLID(graph.VID(i%3), lid, graph.VID((i+1)%4)); err != nil {
			t.Fatalf("AddEdgeLID(%q): %v", l, err)
		}
	}
	g := b.Build()

	got, _, err := decodeSnapshotFile(encodeSnapshotFile(g, 7))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.NumEdges() != g.NumEdges() {
		t.Fatalf("edges: want %d, got %d", g.NumEdges(), got.NumEdges())
	}
	for _, l := range odd {
		lid, ok := got.Dict().Lookup(l)
		if !ok {
			t.Fatalf("label %q lost across round trip", l)
		}
		want, _ := g.Dict().Lookup(l)
		if got.LabelEdgeCount(lid) != g.LabelEdgeCount(want) {
			t.Fatalf("label %q edge count changed", l)
		}
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	e := warmedEngine(t)
	data := encodeSnapshotFile(e.GraphEpoch())

	cases := map[string]func([]byte) []byte{
		"empty":        func(b []byte) []byte { return nil },
		"short header": func(b []byte) []byte { return b[:10] },
		"bad magic":    func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bad version": func(b []byte) []byte {
			b[8] = 99
			return b
		},
		"flipped body byte": func(b []byte) []byte {
			b[len(b)-1] ^= 0x01
			return b
		},
		"truncated body": func(b []byte) []byte { return b[:len(b)-4] },
		"trailing junk":  func(b []byte) []byte { return append(b, 0xde, 0xad) },
	}
	for name, mutate := range cases {
		cp := append([]byte(nil), data...)
		if _, _, err := decodeSnapshotFile(mutate(cp)); err == nil {
			t.Errorf("%s: decode accepted corrupt snapshot", name)
		}
	}
}

// TestSnapshotDecodeErrorsMentionSection: a body that passes the
// header's length and checksum but whose graph columns are unsound must
// fail in graph.FromFlat, and the error must say it was the graph
// section that refused it.
func TestSnapshotDecodeErrorsMentionSection(t *testing.T) {
	e := &encoder{}
	e.u64(2) // two vertices
	e.u32(1) // one label
	e.str("a")
	e.i32s([]int32{0, 1, 1}) // forward offsets
	e.i32s([]int32{5})       // forward target 5: out of range
	e.i32s([]int32{0, 0, 1})
	e.i32s([]int32{0})
	h := &encoder{}
	h.buf = append(h.buf, snapshotMagic...)
	h.u32(snapshotVersion)
	h.u64(1)
	h.u32(crc32.Checksum(e.buf, castagnoli))
	h.u64(uint64(len(e.buf)))

	_, _, err := decodeSnapshotFile(append(h.buf, e.buf...))
	if err == nil {
		t.Fatal("decode accepted a graph with an out-of-range target")
	}
	if !strings.Contains(err.Error(), "snapshot graph") {
		t.Fatalf("error does not locate the failing section: %v", err)
	}
}

// TestSnapshotRejectsVersion1: a version-1 file (whose body also held
// the cache) is refused with an error naming both versions, and Open
// does not fall back to the seed graph over it — that would silently
// drop the write-ahead log beside the snapshot.
func TestSnapshotRejectsVersion1(t *testing.T) {
	if _, _, err := decodeSnapshotFile(snapshotHeaderOnly(1)); err == nil ||
		!strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "want 2") {
		t.Fatalf("decode of a v1 header: err = %v, want an error naming versions 1 and 2", err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), snapshotHeaderOnly(1), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	p, _, err := Open(d, fixtures.Figure1(), core.Options{}, Options{})
	if err == nil {
		p.Close()
		t.Fatal("Open cold-booted from the seed over a version-1 snapshot")
	}
	if !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("Open error does not name the refused version: %v", err)
	}
	if s := d.Stats(); s.SnapshotsWritten != 0 {
		t.Fatalf("Open wrote %d snapshots over the refused file", s.SnapshotsWritten)
	}
}
