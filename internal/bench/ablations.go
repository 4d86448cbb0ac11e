package bench

import (
	"fmt"
	"io"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/rtc"
	"rtcshare/internal/scc"
	"rtcshare/internal/tc"
)

// AblationRow is one measured design-choice comparison (DESIGN.md §6).
type AblationRow struct {
	Name    string
	Variant string
	Elapsed time.Duration
	Note    string
}

// RunAblations measures the design choices DESIGN.md calls out, on the
// RMAT_3 workload: SCC-level vs pair-level joins and vertex-level
// reduction on/off.
func RunAblations(cfg RunConfig) ([]AblationRow, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	g, err := datagen.PaperRMATN(3, cfg.ScaleExp, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sets, err := makeWorkload(g, cfg, cfg.NumRPQs)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	add := func(name, variant string, elapsed time.Duration, note string) {
		rows = append(rows, AblationRow{Name: name, Variant: variant, Elapsed: elapsed, Note: note})
	}

	// 1. Join level: Algorithm 2's SCC-level join (RTC) vs the
	//    pair-level join (Full), measured as the engines' PreJoin part.
	for _, s := range []core.Strategy{core.FullSharing, core.RTCSharing} {
		m, err := measureSets(g, sets, cfg.NumRPQs, s, "ablation")
		if err != nil {
			return nil, err
		}
		variant := "scc-level (Alg. 2)"
		if s == core.FullSharing {
			variant = "pair-level"
		}
		add("join-dedup", variant, m.PreJoin, "PreG⋈R+G part only")
	}

	// 2. Vertex-level reduction on/off, on the shared sub-queries'
	//    reduced graphs.
	grs := make([]*graph.DiGraph, 0, len(sets))
	for _, set := range sets {
		rg := eval.Evaluate(g, set.R)
		grs = append(grs, rtc.EdgeReduce(g.NumVertices(), rg))
	}
	timeAll := func(fn func(*graph.DiGraph)) time.Duration {
		t0 := time.Now()
		for _, gr := range grs {
			fn(gr)
		}
		return time.Since(t0)
	}
	add("vertex-reduction", "off: TC(G_R)", timeAll(func(gr *graph.DiGraph) { tc.BFS(gr) }), "FullSharing's shared data")
	add("vertex-reduction", "on: Tarjan+TC(Ḡ_R)", timeAll(func(gr *graph.DiGraph) {
		comps := scc.Tarjan(gr)
		tc.BFS(scc.Condense(gr, comps))
	}), "the RTC")
	return rows, nil
}

// RenderAblations prints the measured design-choice comparisons.
func RenderAblations(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "Ablations — design choices of DESIGN.md §6 (RMAT_3 workload)")
	fmt.Fprintf(w, "%-18s %-22s %12s  %s\n", "ablation", "variant", "time(ms)", "note")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %-22s %12s  %s\n", r.Name, r.Variant, ms(r.Elapsed), r.Note)
	}
}
