package graph

import (
	"maps"
	"slices"
	"testing"
)

// FuzzApplyUpdates decodes an arbitrary byte stream as an update
// sequence against a Mutable: inserts, deletes and grows over a small
// vertex space and label alphabet. Whatever the stream, applying it must
// never panic, and the final Freeze must be indistinguishable from
// Builder.Build over the surviving edge list — including the Build-time
// LabelStats. Bit 7 of an op's label byte freezes after the op; every
// graph frozen mid-stream must still match Builder.Build over its own
// edge set at the end, every column byte for byte, after later freezes
// spliced new columns out of the ones it shares.
func FuzzApplyUpdates(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 1, 2, 0, 1, 0x80, 0, 1})
	f.Add([]byte{0x40, 3, 3, 0, 1, 2, 0x80, 1, 2, 0xc0, 9})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	// Freeze after each op: insert (0,a,2), insert (0,a,1) ahead of it in
	// the shared run, delete (0,a,2), grow to 12, insert (0,b,11).
	f.Add([]byte{0, 0x80, 2, 0, 0x80, 1, 0x80, 0x80, 2, 0xcc, 0x81, 0, 0, 0x81, 11})
	// The splice boundaries of TestMutableFreezeSpliceEdges, freezing
	// after the base and after the batch.
	for _, tc := range spliceCases {
		f.Add(append(fuzzOps(tc.base), fuzzOps(tc.batch)...))
	}

	labels := []string{"a", "b", "c", "d"}
	type frozen struct {
		g     *Graph
		n     int
		names []string
		edges map[Edge]bool
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 8
		m := NewMutable(n)
		oracle := make(map[Edge]bool)
		var history []frozen
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] >> 6
			src := VID(data[i] & 0x3f)
			label := labels[int(data[i+1])%len(labels)]
			dst := VID(data[i+2])
			switch op {
			case 0, 1: // insert (twice as likely as the rest)
				added, err := m.InsertEdge(src, label, dst)
				if int(src) < m.NumVertices() && int(dst) < m.NumVertices() {
					if err != nil {
						t.Fatalf("in-range insert (%d,%s,%d): %v", src, label, dst, err)
					}
					e := Edge{Src: src, Label: m.Dict().Intern(label), Dst: dst}
					if added == oracle[e] {
						t.Fatalf("insert %v: added=%v, oracle had=%v", e, added, oracle[e])
					}
					oracle[e] = true
				} else if err == nil {
					t.Fatalf("out-of-range insert (%d,%s,%d) did not error", src, label, dst)
				}
			case 2: // delete
				removed, err := m.DeleteEdge(src, label, dst)
				if int(src) < m.NumVertices() && int(dst) < m.NumVertices() {
					if err != nil {
						t.Fatalf("in-range delete (%d,%s,%d): %v", src, label, dst, err)
					}
					if lid, ok := m.Dict().Lookup(label); ok {
						e := Edge{Src: src, Label: lid, Dst: dst}
						if removed != oracle[e] {
							t.Fatalf("delete %v: removed=%v, oracle %v", e, removed, oracle[e])
						}
						delete(oracle, e)
					} else if removed {
						t.Fatalf("delete of unknown label %q reported removed", label)
					}
				} else if err == nil {
					t.Fatalf("out-of-range delete (%d,%s,%d) did not error", src, label, dst)
				}
			case 3: // grow
				m.Grow(int(src))
			}
			if data[i+1]&0x80 != 0 {
				history = append(history, frozen{m.Freeze(), m.NumVertices(), slices.Clone(m.Dict().Names()), maps.Clone(oracle)})
			}
		}

		if m.NumEdges() != len(oracle) {
			t.Fatalf("NumEdges = %d, oracle %d", m.NumEdges(), len(oracle))
		}

		// Freeze must equal graph.Build on the equivalent final edge list.
		b := NewBuilderWithDict(m.NumVertices(), NewDictFrom(m.Dict().Names()...))
		for e := range oracle {
			if err := b.AddEdgeLID(e.Src, e.Label, e.Dst); err != nil {
				t.Fatal(err)
			}
		}
		want := b.Build()
		got := m.Freeze()
		if got.NumEdges() != want.NumEdges() || got.NumVertices() != want.NumVertices() {
			t.Fatalf("freeze: |V|=%d |E|=%d, build: |V|=%d |E|=%d",
				got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
		}
		for l := LID(0); int(l) < want.Dict().Len(); l++ {
			if gs, ws := got.LabelStats(l), want.LabelStats(l); gs != ws {
				t.Fatalf("label %q stats: freeze %+v, build %+v", want.Dict().Name(l), gs, ws)
			}
			if ls := m.LabelStats(l); ls != want.LabelStats(l) {
				t.Fatalf("label %q live stats %+v, build %+v", want.Dict().Name(l), ls, want.LabelStats(l))
			}
		}
		want.Edges(func(e Edge) bool {
			if !got.HasEdge(e.Src, e.Label, e.Dst) {
				t.Fatalf("freeze missing edge %+v", e)
			}
			return true
		})
		for _, h := range history {
			matchesBuild(t, h.g, h.n, h.names, h.edges)
		}
	})
}

// fuzzOps encodes ops as a FuzzApplyUpdates stream that freezes after
// the last op. A grow has no label; its label byte only carries the
// freeze bit.
func fuzzOps(ops []updateOp) []byte {
	kinds := map[byte]byte{'i': 0, 'd': 2, 'g': 3}
	labels := map[string]byte{"": 0, "a": 0, "b": 1, "c": 2, "d": 3}
	var out []byte
	for _, op := range ops {
		out = append(out, kinds[op.kind]<<6|byte(op.src), labels[op.label], byte(op.dst))
	}
	out[len(out)-2] |= 0x80
	return out
}
