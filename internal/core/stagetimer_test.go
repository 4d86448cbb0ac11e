package core

import (
	"testing"
	"time"

	"rtcshare/internal/fixtures"
	"rtcshare/internal/rpq"
)

// TestStageTimerSumAdd: Sum totals every stage, Add folds stage by stage.
func TestStageTimerSumAdd(t *testing.T) {
	a := StageTimer{QueueNS: 1, CoalesceWaitNS: 2, PlanNS: 3, ClosureBuildNS: 4,
		JoinNS: 5, SealNS: 6, PageNS: 7, OtherNS: 8}
	if got := a.Sum(); got != 36*time.Nanosecond {
		t.Fatalf("Sum = %v, want 36ns", got)
	}
	b := a
	b.Add(&a)
	if got := b.Sum(); got != 72*time.Nanosecond {
		t.Fatalf("Sum after Add = %v, want 72ns", got)
	}
	if b.ClosureBuildNS != 8 || b.PageNS != 14 {
		t.Fatalf("Add did not fold stage-wise: %+v", b)
	}
}

// TestEvaluateRelTimed: a timed evaluation returns the same relation and
// epoch as the untimed path, attributes time to the stages a closure
// query actually exercises, and the stage sum stays within the wall time
// of the call (stages partition work; they never double-count it).
func TestEvaluateRelTimed(t *testing.T) {
	g := fixtures.Figure1()
	e := New(g, Options{})
	q := rpq.MustParse("d.(b.c)+.c")

	want, wantEpoch, err := New(g, Options{}).EvaluateRelEpoch(q)
	if err != nil {
		t.Fatalf("untimed: %v", err)
	}

	var st StageTimer
	start := time.Now()
	rel, epoch, err := e.EvaluateRelTimed(q, &st)
	wall := time.Since(start)
	if err != nil {
		t.Fatalf("timed: %v", err)
	}
	if epoch != wantEpoch {
		t.Fatalf("epoch = %d, want %d", epoch, wantEpoch)
	}
	if got, exp := rel.Sorted(), want.Sorted(); len(got) != len(exp) {
		t.Fatalf("timed result %v != untimed %v", got, exp)
	} else {
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("timed result %v != untimed %v", got, exp)
			}
		}
	}
	if st.PlanNS <= 0 {
		t.Errorf("no plan time attributed: %+v", st)
	}
	if st.ClosureBuildNS <= 0 {
		t.Errorf("closure query attributed no closure-build time: %+v", st)
	}
	if st.SealNS <= 0 {
		t.Errorf("no seal time attributed: %+v", st)
	}
	if sum := st.Sum(); sum <= 0 || sum > wall {
		t.Errorf("stage sum %v outside (0, wall %v]", sum, wall)
	}
	// Server-layer stages are not the engine's to fill.
	if st.QueueNS != 0 || st.CoalesceWaitNS != 0 || st.PageNS != 0 {
		t.Errorf("engine wrote serving-layer stages: %+v", st)
	}
}

// TestEvaluateRelTimedNil: nil timer degenerates to EvaluateRelEpoch.
func TestEvaluateRelTimedNil(t *testing.T) {
	e := New(fixtures.Figure1(), Options{})
	rel, _, err := e.EvaluateRelTimed(rpq.MustParse("a"), nil)
	if err != nil || rel == nil {
		t.Fatalf("nil-timer evaluation: rel=%v err=%v", rel, err)
	}
}

// TestEvaluateRelTimedDetaches: after a timed evaluation the engine
// family holds no timer, so later untimed traffic cannot race onto it.
func TestEvaluateRelTimedDetaches(t *testing.T) {
	e := New(fixtures.Figure1(), Options{})
	var st StageTimer
	if _, _, err := e.EvaluateRelTimed(rpq.MustParse("(b.c)+"), &st); err != nil {
		t.Fatal(err)
	}
	snap := st
	if _, err := e.EvaluateQuery("d.(b.c)+.c"); err != nil {
		t.Fatal(err)
	}
	if st != snap {
		t.Fatalf("untimed evaluation mutated a detached timer: %+v -> %+v", snap, st)
	}
}
