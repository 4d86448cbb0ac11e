package store

import (
	"fmt"
	"hash/crc32"
	"math"

	"rtcshare/internal/graph"
)

// Snapshot file layout, version 2. A 32-byte header:
//
//	[8]byte  magic "RPQSNAP1"
//	u32      format version
//	u64      graph epoch
//	u32      CRC-32C (Castagnoli) of the body
//	u64      body length in bytes
//
// followed by the body: the frozen graph's flat CSR columns — the vertex
// count, the label count, then per label in LID order its name and its
// forward and reverse offsets/targets slabs (graph.Flatten transposes a
// reverse the graph has not built, without keeping it). Every slab is a
// length-prefixed int32 run the loader reads with one copy and hands to
// graph.FromFlat, which checks each reverse against its forward slab
// and keeps the forward ones.
// Label names are length-prefixed raw bytes, so labels the text format
// rejects (whitespace, leading '#') round-trip unharmed. A file of any
// other version is refused, never read as a graph: recovery must not
// guess at a layout it does not know.

const (
	snapshotMagic   = "RPQSNAP1"
	snapshotVersion = 2
	snapshotHeader  = 8 + 4 + 8 + 4 + 8
)

// maxSnapshotVertices bounds the vertex counts a snapshot may declare:
// VIDs are int32, so anything beyond that is corrupt by definition.
const maxSnapshotVertices = math.MaxInt32

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeSnapshotFile serialises g at epoch into the version-2 format.
// The same graph always encodes to the same bytes.
func encodeSnapshotFile(g *graph.Graph, epoch uint64) []byte {
	body := encodeSnapshotBody(g)
	h := &encoder{buf: make([]byte, 0, snapshotHeader+len(body))}
	h.buf = append(h.buf, snapshotMagic...)
	h.u32(snapshotVersion)
	h.u64(epoch)
	h.u32(crc32.Checksum(body, castagnoli))
	h.u64(uint64(len(body)))
	return append(h.buf, body...)
}

func encodeSnapshotBody(g *graph.Graph) []byte {
	e := &encoder{}
	f := g.Flatten()
	e.u64(uint64(f.NumVertices))
	e.u32(uint32(len(f.Labels)))
	for i, name := range f.Labels {
		e.str(name)
		e.i32s(f.Fwd[i].Offsets)
		e.i32s(f.Fwd[i].Targets)
		e.i32s(f.Rev[i].Offsets)
		e.i32s(f.Rev[i].Targets)
	}
	return e.buf
}

// decodeSnapshotFile parses and validates a snapshot file. Arbitrary
// bytes yield an error, never a panic or an unbounded allocation: the
// header frames and checksums the body, the codec bounds-checks every
// read, and graph.FromFlat validates every CSR slab before the graph is
// assembled around it.
func decodeSnapshotFile(data []byte) (*graph.Graph, uint64, error) {
	d := &decoder{buf: data}
	magic := d.take(len(snapshotMagic))
	if d.err != nil || string(magic) != snapshotMagic {
		return nil, 0, fmt.Errorf("store: not a snapshot file (bad magic)")
	}
	version := d.u32()
	epoch := d.u64()
	crc := d.u32()
	bodyLen := d.u64()
	if d.err != nil {
		return nil, 0, fmt.Errorf("store: snapshot header truncated: %w", d.err)
	}
	if version != snapshotVersion {
		return nil, 0, fmt.Errorf("store: unsupported snapshot version %d (want %d)", version, snapshotVersion)
	}
	if bodyLen != uint64(d.remaining()) {
		return nil, 0, fmt.Errorf("store: snapshot declares %d body bytes, file holds %d", bodyLen, d.remaining())
	}
	body := data[d.off:]
	if got := crc32.Checksum(body, castagnoli); got != crc {
		return nil, 0, fmt.Errorf("store: snapshot checksum mismatch (file %08x, computed %08x)", crc, got)
	}
	g, err := decodeSnapshotBody(body)
	if err != nil {
		return nil, 0, err
	}
	return g, epoch, nil
}

func decodeSnapshotBody(body []byte) (*graph.Graph, error) {
	d := &decoder{buf: body}
	nv := d.u64()
	if d.err == nil && nv > maxSnapshotVertices {
		return nil, fmt.Errorf("store: snapshot declares %d vertices (limit %d)", nv, int64(maxSnapshotVertices))
	}
	numLabels := d.count(4)
	f := &graph.FlatGraph{
		NumVertices: int(nv),
		Labels:      make([]string, numLabels),
		Fwd:         make([]graph.FlatCSR, numLabels),
		Rev:         make([]graph.FlatCSR, numLabels),
	}
	for i := 0; i < numLabels && d.err == nil; i++ {
		f.Labels[i] = d.str()
		f.Fwd[i] = graph.FlatCSR{Offsets: d.i32s(), Targets: d.i32s()}
		f.Rev[i] = graph.FlatCSR{Offsets: d.i32s(), Targets: d.i32s()}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.remaining() != 0 {
		return nil, fmt.Errorf("store: %d trailing bytes after snapshot body", d.remaining())
	}
	g, err := graph.FromFlat(f)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot graph: %w", err)
	}
	return g, nil
}

// snapshotFileEpoch reads just the header of a snapshot file — the
// cheap path Stats uses to report the resident snapshot's epoch.
func snapshotFileEpoch(data []byte) (uint64, error) {
	d := &decoder{buf: data}
	magic := d.take(len(snapshotMagic))
	if d.err != nil || string(magic) != snapshotMagic {
		return 0, fmt.Errorf("store: not a snapshot file (bad magic)")
	}
	d.u32() // version
	epoch := d.u64()
	if d.err != nil {
		return 0, d.err
	}
	return epoch, nil
}
