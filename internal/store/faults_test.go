package store

import (
	"errors"
	"fmt"
	"testing"

	"rtcshare/internal/core"
	"rtcshare/internal/fixtures"
	"rtcshare/internal/graph"
	"rtcshare/internal/rpq"
)

// TestInjectorDeterminismAndCounting: a fixed seed and operation
// sequence reproduce the same fault pattern, FailNth fires exactly on
// the Nth call, and Disarm silences everything.
func TestInjectorDeterminismAndCounting(t *testing.T) {
	pattern := func() []bool {
		inj := NewInjector(7)
		inj.Arm(0.5, OpWrite)
		out := make([]bool, 64)
		for i := range out {
			out[i], _ = inj.should(OpWrite)
		}
		return out
	}
	a, b := pattern(), pattern()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("p=0.5 fired %d/%d times — injector not probabilistic", fired, len(a))
	}

	inj := NewInjector(1)
	inj.FailNth(OpSync, 3)
	for i := 1; i <= 5; i++ {
		fail, _ := inj.should(OpSync)
		if fail != (i == 3) {
			t.Fatalf("FailNth(3): op %d fail=%v", i, fail)
		}
	}
	if inj.Injected() != 1 || inj.InjectedFor(OpSync) != 1 {
		t.Fatalf("counters: total=%d sync=%d, want 1/1", inj.Injected(), inj.InjectedFor(OpSync))
	}
	inj.Arm(1, OpRename)
	inj.Disarm()
	if fail, _ := inj.should(OpRename); fail {
		t.Fatal("Disarm did not clear probabilistic arming")
	}
}

// TestDirSnapshotFaultKeepsPreviousSnapshot: satellite invariant — a
// failed snapshot commit (write, sync or rename of the temp file) never
// corrupts the snapshot already on disk, and after the fault clears the
// next commit goes through. Exercised for each operation kind.
func TestDirSnapshotFaultKeepsPreviousSnapshot(t *testing.T) {
	for _, op := range []FaultOp{OpWrite, OpSync, OpRename} {
		t.Run(op.String(), func(t *testing.T) {
			inj := NewInjector(42)
			d, err := OpenDirFaulty(t.TempDir(), inj)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()

			first := core.New(fixtures.Figure1(), core.Options{})
			if err := d.WriteSnapshot(first.GraphEpoch()); err != nil {
				t.Fatal(err)
			}

			second := core.New(fixtures.Figure1(), core.Options{})
			if _, err := second.ApplyUpdates([]core.GraphUpdate{core.InsertEdge(0, "b", 5)}); err != nil {
				t.Fatal(err)
			}
			inj.FailNth(op, 1)
			if op == OpWrite {
				inj.ShortWrites(true) // tear the temp file, the nastier variant
			}
			if err := d.WriteSnapshot(second.GraphEpoch()); err == nil {
				t.Fatal("injected snapshot fault reported success")
			} else if !errors.Is(err, ErrInjected) {
				t.Fatalf("fault not tagged ErrInjected: %v", err)
			}

			_, gotEpoch, err := d.LoadSnapshot()
			if err != nil {
				t.Fatalf("previous snapshot unreadable after failed commit: %v", err)
			}
			if gotEpoch != first.Epoch() {
				t.Fatalf("snapshot epoch %d after failed commit, want previous %d", gotEpoch, first.Epoch())
			}

			inj.Disarm()
			if err := d.WriteSnapshot(second.GraphEpoch()); err != nil {
				t.Fatalf("commit after fault cleared: %v", err)
			}
			if _, gotEpoch, err := d.LoadSnapshot(); err != nil || gotEpoch != second.Epoch() {
				t.Fatalf("post-recovery snapshot: epoch %v, err %v", gotEpoch, err)
			}
		})
	}
}

// TestDirAppendFaultRepairsTail: a failed append — torn short write, or
// fully written but unsynced — must leave no trace once repaired: the
// next append (after the fault clears) lands behind exactly the
// acknowledged records, and a reopen replays only acknowledged epochs.
// The unsynced case is the subtle one: the record's bytes are complete
// on disk, but the append reported failure, so surviving a restart
// would diverge recovered state from what clients observed.
func TestDirAppendFaultRepairsTail(t *testing.T) {
	cases := []struct {
		name string
		arm  func(inj *Injector)
	}{
		{"short-write", func(inj *Injector) { inj.ShortWrites(true); inj.FailNth(OpWrite, 1) }},
		{"clean-write-reject", func(inj *Injector) { inj.FailNth(OpWrite, 1) }},
		{"sync-failure", func(inj *Injector) { inj.FailNth(OpSync, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := NewInjector(1)
			d, err := OpenDirFaulty(dir, inj)
			if err != nil {
				t.Fatal(err)
			}

			batch := func(e uint64) []core.GraphUpdate {
				return []core.GraphUpdate{core.InsertEdge(graph.VID(e), "a", graph.VID(e+1))}
			}
			for e := uint64(1); e <= 2; e++ {
				if err := d.AppendBatch(e, batch(e)); err != nil {
					t.Fatal(err)
				}
			}
			tc.arm(inj)
			if err := d.AppendBatch(3, batch(3)); err == nil {
				t.Fatal("injected append fault reported success")
			} else if !errors.Is(err, ErrInjected) {
				t.Fatalf("fault not tagged ErrInjected: %v", err)
			}
			inj.Disarm()
			inj.ShortWrites(false)
			// The next append repairs the tail before writing.
			if err := d.AppendBatch(4, batch(4)); err != nil {
				t.Fatalf("append after repair: %v", err)
			}
			if s := d.Stats(); s.WALRecords != 3 {
				t.Fatalf("WALRecords = %d after repair+append, want 3", s.WALRecords)
			}
			d.Close()

			rd, err := OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			var epochs []uint64
			if err := rd.ReplayBatches(0, func(b LoggedBatch) error {
				epochs = append(epochs, b.Epoch)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprint([]uint64{1, 2, 4})
			if got := fmt.Sprint(epochs); got != want {
				t.Fatalf("replayed epochs %v, want %v (the failed epoch-3 append must not survive)", got, want)
			}
		})
	}
}

// TestDirProbeRepairsAndVerifies: Probe fails while the medium is
// faulty, repairs a dirty WAL tail once it recovers, and reports
// healthy — without needing an append to trigger the repair.
func TestDirProbeRepairsAndVerifies(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(9)
	d, err := OpenDirFaulty(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AppendBatch(1, []core.GraphUpdate{core.InsertEdge(0, "a", 1)}); err != nil {
		t.Fatal(err)
	}
	inj.ShortWrites(true)
	inj.FailNth(OpWrite, 1)
	if err := d.AppendBatch(2, []core.GraphUpdate{core.InsertEdge(1, "a", 2)}); err == nil {
		t.Fatal("injected fault reported success")
	}
	inj.Arm(1) // medium still down: every op fails
	if err := d.Probe(); err == nil {
		t.Fatal("probe succeeded while all ops fail")
	}
	inj.Disarm()
	inj.ShortWrites(false)
	if err := d.Probe(); err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	if s := d.Stats(); s.WALRecords != 1 {
		t.Fatalf("WALRecords = %d after probe repair, want 1", s.WALRecords)
	}
	d.Close()

	rd, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if s := rd.Stats(); s.WALRecords != 1 {
		t.Fatalf("reopened WALRecords = %d, want 1", s.WALRecords)
	}
}

// TestDirRotationFaultKeepsLogConsistent: a snapshot commit whose WAL
// rotation fails must (a) keep the just-committed snapshot, (b) repair
// the log on the next append, and (c) recover on reopen to exactly the
// snapshot plus post-snapshot appends.
func TestDirRotationFaultKeepsLogConsistent(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(5)
	d, err := OpenDirFaulty(dir, inj)
	if err != nil {
		t.Fatal(err)
	}

	eng := core.New(fixtures.Figure1(), core.Options{})
	if err := d.AppendBatch(1, []core.GraphUpdate{core.InsertEdge(0, "z", 9)}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyUpdates([]core.GraphUpdate{core.InsertEdge(0, "z", 9)}); err != nil {
		t.Fatal(err)
	}
	// Rename #1 commits the snapshot; rename #2 is the log rotation.
	inj.FailNth(OpRename, 2)
	err = d.WriteSnapshot(eng.GraphEpoch())
	if err == nil {
		t.Fatal("injected rotation fault reported success")
	}
	if _, gotEpoch, lerr := d.LoadSnapshot(); lerr != nil || gotEpoch != eng.Epoch() {
		t.Fatalf("snapshot lost to a rotation fault: epoch %v, err %v", gotEpoch, lerr)
	}

	// Appends after the failed rotation repair the tail first; the old
	// records it may still hold are superseded by the snapshot.
	if err := d.AppendBatch(eng.Epoch()+1, []core.GraphUpdate{core.InsertEdge(1, "a", 2)}); err != nil {
		t.Fatalf("append after failed rotation: %v", err)
	}
	d.Close()

	rd, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var epochs []uint64
	if err := rd.ReplayBatches(eng.Epoch(), func(b LoggedBatch) error {
		epochs = append(epochs, b.Epoch)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 1 || epochs[0] != eng.Epoch()+1 {
		t.Fatalf("post-snapshot replay sees epochs %v, want [%d]", epochs, eng.Epoch()+1)
	}
}

// TestPersistentDegradationLadder drives the full read-only ladder
// through the directory's file operations: a WAL append failure degrades the engine
// (updates rejected, ErrDegraded, counters on Metrics), queries keep
// serving the last durable epoch, Probe fails while the fault persists
// and re-arms updates when it clears, and a restart recovers exactly
// the acknowledged state.
func TestPersistentDegradationLadder(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(3)
	d, err := OpenDirFaulty(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Open(d, fixtures.Figure1(), core.Options{}, Options{})
	if err != nil {
		t.Fatal(err)
	}

	q := rpq.MustParse("d.(b.c)+.c")
	okBatch := []core.GraphUpdate{core.InsertEdge(0, "b", 1)}
	if _, err := p.ApplyUpdates(okBatch); err != nil {
		t.Fatal(err)
	}
	durableEpoch := p.Epoch()
	wantRel, err := p.EvaluateRel(q)
	if err != nil {
		t.Fatal(err)
	}

	// Rung down: the append fails, the update is observably rejected,
	// the engine stays at the durable epoch.
	inj.FailNth(OpWrite, 1)
	if _, err := p.ApplyUpdates([]core.GraphUpdate{core.InsertEdge(9, "d", 4)}); err == nil {
		t.Fatal("update accepted despite failed WAL append")
	} else if !errors.Is(err, ErrInjected) {
		t.Fatalf("append failure not tagged ErrInjected: %v", err)
	}
	if p.Epoch() != durableEpoch {
		t.Fatalf("epoch advanced to %d past a failed append (durable %d)", p.Epoch(), durableEpoch)
	}
	degraded, reason, since := p.Degraded()
	if !degraded || reason == "" || since.IsZero() {
		t.Fatalf("not degraded after append failure: %v %q %v", degraded, reason, since)
	}
	if _, err := p.ApplyUpdates(okBatch); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded update error = %v, want ErrDegraded", err)
	}
	m := p.Metrics()
	if !m.Degraded || m.WALAppendErrors != 1 || m.LastError == "" || m.DegradedSince.IsZero() {
		t.Fatalf("metrics after degradation: %+v", m)
	}

	// Read-only invariant: queries still answer, at the durable epoch.
	rel, epoch, err := p.EvaluateRelEpoch(q)
	if err != nil || epoch != durableEpoch || !rel.Equal(wantRel) {
		t.Fatalf("degraded query: epoch %d err %v (want epoch %d, same result)", epoch, err, durableEpoch)
	}

	// Probe must not re-arm while the medium still fails.
	inj.Arm(1)
	if err := p.Probe(); err == nil {
		t.Fatal("probe re-armed updates while faults persist")
	}
	if deg, _, _ := p.Degraded(); !deg {
		t.Fatal("failed probe cleared the degraded flag")
	}

	// Fault clears: probe re-arms, updates flow, the ladder is climbed.
	inj.Disarm()
	if err := p.Probe(); err != nil {
		t.Fatalf("probe after fault cleared: %v", err)
	}
	if deg, _, _ := p.Degraded(); deg {
		t.Fatal("still degraded after successful probe")
	}
	if _, err := p.ApplyUpdates([]core.GraphUpdate{core.InsertEdge(9, "d", 4)}); err != nil {
		t.Fatalf("update after re-arm: %v", err)
	}
	if m := p.Metrics(); m.Degraded || m.DegradedReason != "" {
		t.Fatalf("metrics still degraded after recovery: %+v", m)
	}

	// Snapshot failure degrades through the same ladder.
	inj.FailNth(OpRename, 1)
	if _, err := p.Snapshot(); err == nil {
		t.Fatal("injected snapshot fault reported success")
	}
	if m := p.Metrics(); m.SnapshotErrors != 1 || !m.Degraded {
		t.Fatalf("metrics after snapshot failure: %+v", m)
	}
	inj.Disarm()
	if err := p.Probe(); err != nil {
		t.Fatal(err)
	}

	// Restart: recovered state is exactly the acknowledged batches.
	fp := fingerprintEngine(t, p.Engine, []rpq.Expr{q})
	d.Close()
	rd, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rp, _, err := Open(rd, nil, core.Options{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if got := fingerprintEngine(t, rp.Engine, []rpq.Expr{q}); got != fp {
		t.Fatalf("restart diverged from acknowledged state\nlive:      %s\nrecovered: %s", fp, got)
	}
	if cc := rp.Cache().Counters(); cc.CrossEpochHits != 0 {
		t.Fatalf("CrossEpochHits = %d after recovery, want 0", cc.CrossEpochHits)
	}
}

// TestPersistentRejectedAppendDoesNotReplay: an update whose WAL record
// landed but whose fsync failed was rejected to the client, so a
// restart — with no probe or later append in between to repair the
// tail — must recover the acknowledged epoch, not replay the record.
func TestPersistentRejectedAppendDoesNotReplay(t *testing.T) {
	dir := t.TempDir()
	inj := NewInjector(11)
	d, err := OpenDirFaulty(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := Open(d, fixtures.Figure1(), core.Options{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := rpq.MustParse("d.(b.c)+.c")
	acked := p.Epoch()
	fp := fingerprintEngine(t, p.Engine, []rpq.Expr{q})

	inj.FailNth(OpSync, 1)
	if _, err := p.ApplyUpdates([]core.GraphUpdate{core.InsertEdge(9, "d", 4)}); err == nil {
		t.Fatal("update accepted despite failed WAL sync")
	} else if !errors.Is(err, ErrInjected) {
		t.Fatalf("sync failure not tagged ErrInjected: %v", err)
	}
	d.Close()

	rd, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rp, info, err := Open(rd, nil, core.Options{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if rp.Epoch() != acked || info.ReplayedBatches != 0 {
		t.Fatalf("restart replayed a rejected batch: epoch %d (acknowledged %d), replayed %d batches",
			rp.Epoch(), acked, info.ReplayedBatches)
	}
	if got := fingerprintEngine(t, rp.Engine, []rpq.Expr{q}); got != fp {
		t.Fatalf("restart diverged from acknowledged state\nlive:      %s\nrecovered: %s", fp, got)
	}
}
