package bench

import (
	"bytes"
	"strings"
	"testing"

	"rtcshare/internal/datagen"
)

// tinyConfig keeps harness tests fast while still exercising every code
// path, with cross-strategy verification on.
func tinyConfig() RunConfig {
	return RunConfig{
		ScaleExp:     6, // 64 vertices
		MaxN:         2,
		NumSets:      2,
		NumRPQs:      2,
		RPQCounts:    []int{1, 2},
		YagoVertices: 256,
		RealVertices: 128,
		Seed:         7,
		Verify:       true,
		Workers:      4,
	}
}

func TestDegreeSweepSynthetic(t *testing.T) {
	cfg := tinyConfig()
	ds, err := RunDegreeSweepSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Synthetic) != cfg.MaxN+1 {
		t.Fatalf("cells = %d, want %d", len(ds.Synthetic), cfg.MaxN+1)
	}
	for i, c := range ds.Synthetic {
		if c.No.Response <= 0 || c.Full.Response <= 0 || c.RTC.Response <= 0 {
			t.Errorf("cell %d: non-positive response times: %+v", i, c)
		}
		// Verify=true already asserted equal result counts; also check
		// the sweep produced the right degrees: 2^(N-2).
		want := 0.25 * float64(int(1)<<i)
		if c.Degree != want {
			t.Errorf("cell %d degree = %v, want %v", i, c.Degree, want)
		}
		// RTC shared structure can never exceed Full's.
		if c.RTC.SharedPairs > c.Full.SharedPairs {
			t.Errorf("cell %d: |R̄+Ḡ| (%v) > |R+G| (%v)", i, c.RTC.SharedPairs, c.Full.SharedPairs)
		}
		if c.RTC.ReducedVertices > c.Full.ReducedVertices {
			t.Errorf("cell %d: |V̄| > |VR|", i)
		}
	}
	var buf bytes.Buffer
	ds.RenderFig10(&buf)
	ds.RenderFig11(&buf)
	ds.RenderFig12(&buf)
	ds.RenderFig13(&buf)
	out := buf.String()
	for _, want := range []string{"Fig. 10", "Fig. 11", "Fig. 12", "Fig. 13", "RMAT_0", "RMAT_2"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q", want)
		}
	}
}

func TestDegreeSweepReal(t *testing.T) {
	cfg := tinyConfig()
	ds, err := RunDegreeSweepReal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Real) != 4 {
		t.Fatalf("cells = %d, want 4", len(ds.Real))
	}
	// Degree per label must be preserved by the scaling (Table IV).
	wantDegrees := []float64{0.02, 0.52, 2.61, 11.42}
	for i, c := range ds.Real {
		if diff := c.Degree - wantDegrees[i]; diff > 0.1 || diff < -0.1 {
			t.Errorf("%s degree = %.3f, want ≈%.2f", c.Dataset, c.Degree, wantDegrees[i])
		}
	}
	var buf bytes.Buffer
	ds.RenderFig10(&buf)
	if !strings.Contains(buf.String(), "Yago2s") {
		t.Error("render output missing Yago2s")
	}
}

func TestRPQSweep(t *testing.T) {
	cfg := tinyConfig()
	rs, err := RunRPQSweep(cfg, datagen.RMATSpec(3, cfg.ScaleExp))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Cells) != len(cfg.RPQCounts) {
		t.Fatalf("cells = %d, want %d", len(rs.Cells), len(cfg.RPQCounts))
	}
	// More RPQs must yield at least as many total result pairs.
	if rs.Cells[1].RTC.ResultPairs < rs.Cells[0].RTC.ResultPairs {
		t.Error("result pairs shrank as #RPQs grew")
	}
	var buf bytes.Buffer
	rs.RenderFig14(&buf)
	rs.RenderFig15(&buf)
	if !strings.Contains(buf.String(), "Fig. 14") || !strings.Contains(buf.String(), "Fig. 15") {
		t.Error("render output missing figures")
	}
}

func TestTableIII(t *testing.T) {
	rows, err := RunTableIII(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no Table III rows")
	}
	for _, r := range rows {
		if r.VBar > r.VR {
			t.Errorf("R=%q: |V̄| (%d) > |VR| (%d)", r.R, r.VBar, r.VR)
		}
		if r.RTCPairs > r.FullPairs {
			t.Errorf("R=%q: |R̄+Ḡ| (%d) > |R+G| (%d)", r.R, r.RTCPairs, r.FullPairs)
		}
	}
	var buf bytes.Buffer
	RenderTableIII(&buf, rows)
	if !strings.Contains(buf.String(), "Table III") {
		t.Error("render output missing header")
	}
}

func TestTableIV(t *testing.T) {
	cfg := tinyConfig()
	rows, err := RunTableIV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4+cfg.MaxN+1 {
		t.Fatalf("rows = %d, want %d", len(rows), 4+cfg.MaxN+1)
	}
	for _, r := range rows {
		if r.Stats.Edges != r.Spec.Edges {
			t.Errorf("%s: generated |E|=%d, spec %d", r.Spec.Name, r.Stats.Edges, r.Spec.Edges)
		}
	}
	var buf bytes.Buffer
	RenderTableIV(&buf, rows)
	if !strings.Contains(buf.String(), "Youtube") {
		t.Error("render output missing Youtube")
	}
}

func TestRegistry(t *testing.T) {
	exps := Experiments()
	wantIDs := []string{
		"ablations",
		"fig10a", "fig10b", "fig11a", "fig11b", "fig12a", "fig12b",
		"fig13a", "fig13b", "fig14a", "fig14b", "fig15a", "fig15b",
		"fig16", "table3", "table4",
	}
	if len(exps) != len(wantIDs) {
		t.Fatalf("experiments = %d, want %d", len(exps), len(wantIDs))
	}
	for i, id := range wantIDs {
		if exps[i].ID != id {
			t.Errorf("experiment %d = %q, want %q", i, exps[i].ID, id)
		}
	}
	if _, ok := Lookup("fig10a"); !ok {
		t.Error("Lookup(fig10a) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
}

func TestExperimentRunnersExecute(t *testing.T) {
	// Run the cheap experiments end to end through the registry.
	cfg := tinyConfig()
	cfg.MaxN = 1
	for _, id := range []string{"table4", "fig10a", "fig12a", "fig14a", "fig16", "ablations"} {
		e, ok := Lookup(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		var buf bytes.Buffer
		if err := e.Run(&buf, cfg); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", id)
		}
	}
}

func TestAblations(t *testing.T) {
	rows, err := RunAblations(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]int)
	for _, r := range rows {
		names[r.Name]++
	}
	want := map[string]int{"join-dedup": 2, "vertex-reduction": 2}
	if len(names) != len(want) {
		t.Errorf("ablations %v, want exactly %v", names, want)
	}
	for name, n := range want {
		if names[name] != n {
			t.Errorf("ablation %q: %d variants, want %d", name, names[name], n)
		}
	}
	var buf bytes.Buffer
	RenderAblations(&buf, rows)
	if !strings.Contains(buf.String(), "join-dedup") {
		t.Error("render missing join-dedup")
	}
}

func TestCheckConfig(t *testing.T) {
	bad := []RunConfig{
		{},
		{ScaleExp: 30, MaxN: 1, NumSets: 1, NumRPQs: 1, RPQCounts: []int{1}},
		{ScaleExp: 8, MaxN: 9, NumSets: 1, NumRPQs: 1, RPQCounts: []int{1}},
		{ScaleExp: 8, MaxN: 1, NumSets: 0, NumRPQs: 1, RPQCounts: []int{1}},
		{ScaleExp: 8, MaxN: 1, NumSets: 1, NumRPQs: 0, RPQCounts: []int{1}},
		{ScaleExp: 8, MaxN: 1, NumSets: 1, NumRPQs: 1, RPQCounts: nil},
	}
	for i, cfg := range bad {
		if err := checkConfig(cfg); err == nil {
			t.Errorf("case %d: want config error", i)
		}
	}
	if err := checkConfig(DefaultConfig()); err != nil {
		t.Errorf("DefaultConfig invalid: %v", err)
	}
	if err := checkConfig(PaperConfig()); err != nil {
		t.Errorf("PaperConfig invalid: %v", err)
	}
}
