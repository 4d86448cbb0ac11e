package store

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"rtcshare/internal/core"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

func TestPersistentColdBootWritesAnchorSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, info, err := Open(d, fixtures.Figure1(), core.Options{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if info.RestoredSnapshot {
		t.Fatal("cold boot reported a restored snapshot")
	}
	if s := d.Stats(); s.SnapshotsWritten != 1 || s.SnapshotBytes == 0 {
		t.Fatalf("cold boot did not anchor the log with a snapshot: %+v", s)
	}
	if p.Recovery() != info {
		t.Fatal("Recovery() disagrees with Open's info")
	}
}

func TestPersistentColdBootRequiresSeed(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, _, err := Open(d, nil, core.Options{}, Options{}); err == nil {
		t.Fatal("empty store with nil seed accepted")
	}
}

func TestPersistentLogsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Open(d, fixtures.Figure1(), core.Options{}, Options{})
	if err != nil {
		t.Fatal(err)
	}

	q := rpq.MustParse("d.(b.c)+.c")
	if _, err := p.EvaluateRel(q); err != nil {
		t.Fatal(err)
	}
	batches := [][]core.GraphUpdate{
		{core.InsertEdge(0, "b", 1), core.InsertEdge(9, "d", 4)},
		{core.DeleteEdge(5, "c", 6)},
		// Pure no-op: under log-before-apply it still leaves a (harmless)
		// record, logged at a predicted epoch the engine never reaches.
		{core.InsertEdge(0, "b", 1)},
		{core.InsertEdge(6, "b", 7)},
	}
	for _, b := range batches {
		if _, err := p.ApplyUpdates(b); err != nil {
			t.Fatal(err)
		}
	}
	if s := d.Stats(); s.WALRecords != 4 {
		t.Fatalf("logged %d records, want 4 (log-before-apply logs the no-op batch too)", s.WALRecords)
	}
	want, err := p.EvaluateRel(q)
	if err != nil {
		t.Fatal(err)
	}
	wantEpoch := p.Epoch()
	// Abandon p without snapshotting — the "crash": recovery must come
	// from the anchor snapshot plus the three logged batches.
	d.Close()

	d2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	p2, info, err := Open(d2, nil, core.Options{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if !info.RestoredSnapshot || info.ReplayedBatches != 4 || info.ReplayedUpdates != 5 {
		t.Fatalf("recovery info: %+v", info)
	}
	if p2.Epoch() != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", p2.Epoch(), wantEpoch)
	}
	got, err := p2.EvaluateRel(q)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatalf("recovered engine answers differ: %d pairs vs %d", got.Len(), want.Len())
	}
	if c := p2.Cache().Counters(); c.CrossEpochHits != 0 {
		t.Fatalf("CrossEpochHits = %d after recovery, want 0", c.CrossEpochHits)
	}
}

func TestPersistentAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Open(d, fixtures.Figure1(), core.Options{}, Options{SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	for i := 0; i < 5; i++ {
		if _, err := p.ApplyUpdates([]core.GraphUpdate{core.InsertEdge(graph.VID(i), "z", graph.VID(i+1))}); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	// 1 anchor + auto-snapshots after batches 2 and 4; batch 5 pending.
	if s.SnapshotsWritten != 3 {
		t.Fatalf("snapshots written = %d, want 3", s.SnapshotsWritten)
	}
	if s.WALRecords != 1 {
		t.Fatalf("WAL records = %d, want 1 (only the batch since the last auto-snapshot)", s.WALRecords)
	}
	m := p.Metrics()
	if m.BatchesSinceSnapshot != 1 || m.SnapshotEvery != 2 {
		t.Fatalf("metrics: %+v", m)
	}
	if info, err := p.Snapshot(); err != nil || info.Epoch != p.Epoch() {
		t.Fatalf("explicit snapshot: %+v, %v", info, err)
	}
	if p.Metrics().BatchesSinceSnapshot != 0 {
		t.Fatal("explicit snapshot did not reset the batch counter")
	}
}

// TestPersistentReplayCountsTowardAutoSnapshot: the batches replayed at
// boot are batches since the last snapshot. A restart must neither
// report an empty tail over a non-empty log nor restart the
// SnapshotEvery count, or crash cycles shorter than SnapshotEvery would
// grow the log without bound.
func TestPersistentReplayCountsTowardAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	popts := Options{SnapshotEvery: 3}
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Open(d, fixtures.Figure1(), core.Options{}, popts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := p.ApplyUpdates([]core.GraphUpdate{core.InsertEdge(graph.VID(i), "z", graph.VID(i+1))}); err != nil {
			t.Fatal(err)
		}
	}
	p.Close() // no snapshot: the two batches live only in the log

	d2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := Open(d2, nil, core.Options{}, popts)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if m := p2.Metrics(); m.BatchesSinceSnapshot != 2 || m.Store.WALRecords != 2 {
		t.Fatalf("after reopen: batches_since_snapshot %d over %d WAL records, want 2 over 2",
			m.BatchesSinceSnapshot, m.Store.WALRecords)
	}
	if _, err := p2.ApplyUpdates([]core.GraphUpdate{core.InsertEdge(2, "z", 3)}); err != nil {
		t.Fatal(err)
	}
	m := p2.Metrics()
	if m.Store.SnapshotsWritten != 1 || m.Store.WALRecords != 0 || m.BatchesSinceSnapshot != 0 {
		t.Fatalf("third batch since the snapshot did not compact: %d snapshots written, %d WAL records, %d since snapshot",
			m.Store.SnapshotsWritten, m.Store.WALRecords, m.BatchesSinceSnapshot)
	}
}

// fingerprintEngine folds an engine's observable state — epoch, graph
// shape, and the answers to a probe workload — into one comparable
// value.
func fingerprintEngine(t *testing.T, e *core.Engine, probes []rpq.Expr) string {
	t.Helper()
	g := e.Graph()
	s := fmt.Sprintf("epoch=%d n=%d m=%d", e.Epoch(), g.NumVertices(), g.NumEdges())
	for i, q := range probes {
		rel, err := e.EvaluateRel(q)
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		pairsList := rel.Sorted()
		s += fmt.Sprintf("|q%d:%d:", i, len(pairsList))
		for _, p := range pairsList {
			s += fmt.Sprintf("%d-%d,", p.Src, p.Dst)
		}
	}
	return s
}

// TestCrashRecoveryProperty drives random update scripts against a
// persistent engine and, at random crash points — after N committed WAL
// records, with the tail torn mid-record, or with a record's CRC
// corrupted — recovers from disk and demands the recovered engine be
// fingerprint-identical to an oracle that applied exactly the surviving
// prefix and never crashed. Sharing must stay sound throughout:
// CrossEpochHits is asserted zero after every recovery's probes.
func TestCrashRecoveryProperty(t *testing.T) {
	labels := []string{"a", "b", "c"}
	probes := []rpq.Expr{
		rpq.MustParse("a.b"),
		rpq.MustParse("(a.b)+"),
		rpq.MustParse("c.(a|b)*"),
	}
	const n = 12

	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xC0FFEE + int64(trial)))
			seed := fixtures.RandomGraph(rng, n, 30, labels)

			// Script of update batches, each guaranteed effective odds-on;
			// ineffective ones are simply not logged, which the oracle
			// mirrors by applying the same batches.
			script := make([][]core.GraphUpdate, 8)
			for i := range script {
				batch := make([]core.GraphUpdate, 1+rng.Intn(4))
				for j := range batch {
					u := core.InsertEdge(graph.VID(rng.Intn(n)), labels[rng.Intn(len(labels))], graph.VID(rng.Intn(n)))
					if rng.Intn(3) == 0 {
						u.Op = core.OpDeleteEdge
					}
					batch[j] = u
				}
				script[i] = batch
			}

			dir := t.TempDir()
			d, err := OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			p, _, err := Open(d, seed, core.Options{}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, batch := range script {
				// Interleave evaluation so the cache (and thus snapshots,
				// if any) holds per-epoch structures mid-script.
				if i%3 == 1 {
					if _, err := p.EvaluateRel(probes[i%len(probes)]); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := p.ApplyUpdates(batch); err != nil {
					t.Fatal(err)
				}
			}
			d.Close() // crash: no final snapshot

			walPath := filepath.Join(dir, walFile)
			data, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			committed, _ := scanWAL(data)
			if len(committed) == 0 {
				t.Skip("script produced no effective batches (vanishingly unlikely)")
			}

			// Frame boundaries, for cutting after exactly k records.
			bounds := []int{0}
			for off := 0; len(bounds) <= len(committed); {
				payloadLen := int(binary.LittleEndian.Uint32(data[off:]))
				off += 8 + payloadLen
				bounds = append(bounds, off)
			}

			type crash struct {
				name    string
				mutate  func() // rewrites wal.log
				survive int    // records the oracle should see
			}
			kill := rng.Intn(len(committed) + 1)
			torn := 1 + rng.Intn(len(committed))
			crashes := []crash{
				{
					name:    fmt.Sprintf("after-%d-records", kill),
					mutate:  func() { os.WriteFile(walPath, data[:bounds[kill]], 0o644) },
					survive: kill,
				},
				{
					name: fmt.Sprintf("torn-mid-record-%d", torn),
					mutate: func() {
						cut := bounds[torn-1] + 1 + rng.Intn(bounds[torn]-bounds[torn-1]-1)
						os.WriteFile(walPath, data[:cut], 0o644)
					},
					survive: torn - 1,
				},
				{
					name: fmt.Sprintf("corrupt-crc-record-%d", torn),
					mutate: func() {
						cp := append([]byte(nil), data...)
						cp[bounds[torn-1]+4] ^= 0x40 // a CRC byte of record `torn`
						os.WriteFile(walPath, cp, 0o644)
					},
					survive: torn - 1,
				},
			}

			for _, c := range crashes {
				c.mutate()

				// Oracle: never crashed, applied exactly the surviving prefix.
				oracle := core.New(seed, core.Options{})
				for _, b := range committed[:c.survive] {
					if _, err := oracle.ApplyUpdates(b.Updates); err != nil {
						t.Fatalf("%s: oracle apply: %v", c.name, err)
					}
				}

				rd, err := OpenDir(dir)
				if err != nil {
					t.Fatalf("%s: reopen: %v", c.name, err)
				}
				rp, info, err := Open(rd, nil, core.Options{}, Options{})
				if err != nil {
					t.Fatalf("%s: recover: %v", c.name, err)
				}
				if info.ReplayedBatches != c.survive {
					t.Fatalf("%s: replayed %d batches, want %d", c.name, info.ReplayedBatches, c.survive)
				}
				want := fingerprintEngine(t, oracle, probes)
				got := fingerprintEngine(t, rp.Engine, probes)
				if want != got {
					t.Fatalf("%s: recovered state diverges from oracle\noracle:    %s\nrecovered: %s", c.name, want, got)
				}
				if cc := rp.Cache().Counters(); cc.CrossEpochHits != 0 {
					t.Fatalf("%s: CrossEpochHits = %d, want 0", c.name, cc.CrossEpochHits)
				}
				rd.Close()

				// Restore the full log for the next crash variant.
				if err := os.WriteFile(walPath, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRecoveryEquivalenceWithMidScriptSnapshot covers the compaction
// path: a snapshot taken mid-script, with a warm cache it does not
// carry, plus a WAL tail must recover to the same state as never having
// snapshotted.
func TestRecoveryEquivalenceWithMidScriptSnapshot(t *testing.T) {
	labels := []string{"a", "b", "c"}
	probes := []rpq.Expr{rpq.MustParse("(a.b)+"), rpq.MustParse("c.(a|b)*")}
	rng := rand.New(rand.NewSource(42))
	seed := fixtures.RandomGraph(rng, 16, 48, labels)

	dir := t.TempDir()
	d, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Open(d, seed, core.Options{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.New(seed, core.Options{})

	apply := func(batch []core.GraphUpdate) {
		if _, err := p.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.ApplyUpdates(batch); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		apply([]core.GraphUpdate{core.InsertEdge(graph.VID(i), "a", graph.VID(i+1))})
	}
	// Warm, snapshot mid-script, then keep mutating.
	for _, q := range probes {
		if _, err := p.EvaluateRel(q); err != nil {
			t.Fatal(err)
		}
	}
	info, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		apply([]core.GraphUpdate{
			core.InsertEdge(graph.VID(i), "b", graph.VID(i+1)),
			core.DeleteEdge(graph.VID(i-3), "a", graph.VID(i-2)),
		})
	}
	d.Close() // crash

	rd, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rp, rinfo, err := Open(rd, nil, core.Options{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if !rinfo.RestoredSnapshot || rinfo.SnapshotEpoch != info.Epoch {
		t.Fatalf("recovery info: %+v", rinfo)
	}
	if rinfo.ReplayedBatches != 3 {
		t.Fatalf("replayed %d batches, want 3", rinfo.ReplayedBatches)
	}
	want := fingerprintEngine(t, oracle, probes)
	got := fingerprintEngine(t, rp.Engine, probes)
	if want != got {
		t.Fatalf("recovered state diverges\noracle:    %s\nrecovered: %s", want, got)
	}
	if cc := rp.Cache().Counters(); cc.CrossEpochHits != 0 {
		t.Fatalf("CrossEpochHits = %d, want 0", cc.CrossEpochHits)
	}
}
