package bench

import (
	"fmt"
	"io"
	"time"

	"rtcshare/internal/datagen"
	"rtcshare/internal/graph"
	"rtcshare/internal/scc"
	"rtcshare/internal/tc"
)

// DegreeSweep holds Experiment 1 (Figs. 10–13): one Cell per dataset,
// with the vertex degree per label varied.
type DegreeSweep struct {
	Config    RunConfig
	Synthetic []Cell // RMAT_0..RMAT_MaxN
	Real      []Cell // Yago2s, Robots, Advogato, Youtube stand-ins
}

// RunDegreeSweepSynthetic measures the RMAT_N series (the "(a)" panels).
func RunDegreeSweepSynthetic(cfg RunConfig) (*DegreeSweep, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	ds := &DegreeSweep{Config: cfg}
	for n := 0; n <= cfg.MaxN; n++ {
		g, err := datagen.PaperRMATN(n, cfg.ScaleExp, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		sets, err := makeWorkload(g, cfg, cfg.NumRPQs)
		if err != nil {
			return nil, err
		}
		cell, err := measureCell(cfg, g, sets, cfg.NumRPQs, fmt.Sprintf("RMAT_%d", n))
		if err != nil {
			return nil, err
		}
		ds.Synthetic = append(ds.Synthetic, cell)
	}
	return ds, nil
}

// RunDegreeSweepReal measures the real-dataset stand-ins (the "(b)"
// panels).
func RunDegreeSweepReal(cfg RunConfig) (*DegreeSweep, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	ds := &DegreeSweep{Config: cfg}
	for i, spec := range realSpecs(cfg) {
		g, err := spec.Generate(cfg.Seed + int64(100+i))
		if err != nil {
			return nil, err
		}
		sets, err := makeWorkload(g, cfg, cfg.NumRPQs)
		if err != nil {
			return nil, err
		}
		cell, err := measureCell(cfg, g, sets, cfg.NumRPQs, spec.Name)
		if err != nil {
			return nil, err
		}
		ds.Real = append(ds.Real, cell)
	}
	return ds, nil
}

// cells returns whichever panel was run.
func (ds *DegreeSweep) cells() []Cell {
	if len(ds.Synthetic) > 0 {
		return ds.Synthetic
	}
	return ds.Real
}

// RenderFig10 prints the query-response-time series of Fig. 10. For the
// real-dataset panel the paper normalises by RTCSharing; both raw and
// normalised values are shown.
func (ds *DegreeSweep) RenderFig10(w io.Writer) {
	fmt.Fprintf(w, "Fig. 10 — query response time (#RPQs = %d, %d sets)\n", ds.Config.NumRPQs, ds.Config.NumSets)
	fmt.Fprintf(w, "%-9s %8s %12s %12s %12s %9s %9s\n",
		"dataset", "degree", "No(ms)", "Full(ms)", "RTC(ms)", "No/RTC", "Full/RTC")
	for _, c := range ds.cells() {
		fmt.Fprintf(w, "%-9s %8.3f %12s %12s %12s %9.2f %9.2f\n",
			c.Dataset, c.Degree, ms(c.No.Response), ms(c.Full.Response), ms(c.RTC.Response),
			ratio(c.No.Response, c.RTC.Response), ratio(c.Full.Response, c.RTC.Response))
	}
}

// RenderFig11 prints the three-part computation-time split of Fig. 11.
func (ds *DegreeSweep) RenderFig11(w io.Writer) {
	fmt.Fprintf(w, "Fig. 11 — computation time of three parts (#RPQs = %d)\n", ds.Config.NumRPQs)
	fmt.Fprintf(w, "%-9s %8s %-6s %14s %14s %14s\n",
		"dataset", "degree", "method", "Shared_Data(ms)", "PreG⋈R+G(ms)", "Remainder(ms)")
	for _, c := range ds.cells() {
		for _, m := range []Measurement{c.Full, c.RTC} {
			fmt.Fprintf(w, "%-9s %8.3f %-6s %14s %14s %14s\n",
				c.Dataset, c.Degree, m.Strategy, ms(m.SharedData), ms(m.PreJoin), ms(m.Remainder))
		}
		fmt.Fprintf(w, "%-9s %8.3f %-6s Shared_Data ratio Full/RTC = %.2f, PreG⋈R+G ratio = %.2f\n",
			c.Dataset, c.Degree, "ratio",
			ratio(c.Full.SharedData, c.RTC.SharedData), ratio(c.Full.PreJoin, c.RTC.PreJoin))
	}
}

// RenderFig12 prints the shared-data sizes of Fig. 12: |R+_G| for Full
// vs |R̄+_Ḡ| for RTC.
func (ds *DegreeSweep) RenderFig12(w io.Writer) {
	fmt.Fprintf(w, "Fig. 12 — shared data size in pairs (#RPQs = %d)\n", ds.Config.NumRPQs)
	fmt.Fprintf(w, "%-9s %8s %14s %14s %10s\n", "dataset", "degree", "Full |R+G|", "RTC |R̄+Ḡ|", "Full/RTC")
	for _, c := range ds.cells() {
		fmt.Fprintf(w, "%-9s %8.3f %14.1f %14.1f %10.2f\n",
			c.Dataset, c.Degree, c.Full.SharedPairs, c.RTC.SharedPairs,
			fratio(c.Full.SharedPairs, c.RTC.SharedPairs))
	}
}

// RenderFig13 prints the vertex counts of Fig. 13: |V_R| vs |V̄_R̄|.
func (ds *DegreeSweep) RenderFig13(w io.Writer) {
	fmt.Fprintf(w, "Fig. 13 — number of vertices (#RPQs = %d)\n", ds.Config.NumRPQs)
	fmt.Fprintf(w, "%-9s %8s %12s %12s %10s %12s\n",
		"dataset", "degree", "Full |VR|", "RTC |V̄R̄|", "ratio", "avg SCC size")
	for _, c := range ds.cells() {
		fmt.Fprintf(w, "%-9s %8.3f %12.1f %12.1f %10.2f %12.2f\n",
			c.Dataset, c.Degree, c.Full.ReducedVertices, c.RTC.ReducedVertices,
			fratio(c.Full.ReducedVertices, c.RTC.ReducedVertices), c.RTC.AvgSCCSize)
	}
}

// RPQSweep holds Experiment 2 (Figs. 14–15): one Cell per set size, on a
// fixed dataset.
type RPQSweep struct {
	Config  RunConfig
	Dataset string
	Cells   []Cell // one per entry of cfg.RPQCounts
}

// RunRPQSweep measures Figs. 14/15 on one dataset spec. The paper uses
// RMAT_3 (panel a) and Advogato (panel b), the median-degree datasets.
func RunRPQSweep(cfg RunConfig, spec datagen.DatasetSpec) (*RPQSweep, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	g, err := spec.Generate(cfg.Seed)
	if err != nil {
		return nil, err
	}
	maxRPQs := 0
	for _, k := range cfg.RPQCounts {
		if k > maxRPQs {
			maxRPQs = k
		}
	}
	sets, err := makeWorkload(g, cfg, maxRPQs)
	if err != nil {
		return nil, err
	}
	sweep := &RPQSweep{Config: cfg, Dataset: spec.Name}
	for _, k := range cfg.RPQCounts {
		cell, err := measureCell(cfg, g, sets, k, fmt.Sprintf("%s(#%d)", spec.Name, k))
		if err != nil {
			return nil, err
		}
		sweep.Cells = append(sweep.Cells, cell)
	}
	return sweep, nil
}

// RenderFig14 prints the query-response-time-vs-#RPQs series of Fig. 14.
func (rs *RPQSweep) RenderFig14(w io.Writer) {
	fmt.Fprintf(w, "Fig. 14 — query response time vs #RPQs (%s)\n", rs.Dataset)
	fmt.Fprintf(w, "%-7s %12s %12s %12s %9s %9s\n", "#RPQs", "No(ms)", "Full(ms)", "RTC(ms)", "No/RTC", "Full/RTC")
	for i, c := range rs.Cells {
		fmt.Fprintf(w, "%-7d %12s %12s %12s %9.2f %9.2f\n",
			rs.Config.RPQCounts[i], ms(c.No.Response), ms(c.Full.Response), ms(c.RTC.Response),
			ratio(c.No.Response, c.RTC.Response), ratio(c.Full.Response, c.RTC.Response))
	}
}

// RenderFig15 prints the three-part split vs #RPQs of Fig. 15.
func (rs *RPQSweep) RenderFig15(w io.Writer) {
	fmt.Fprintf(w, "Fig. 15 — computation time of three parts vs #RPQs (%s)\n", rs.Dataset)
	fmt.Fprintf(w, "%-7s %-6s %14s %14s %14s\n", "#RPQs", "method", "Shared_Data(ms)", "PreG⋈R+G(ms)", "Remainder(ms)")
	for i, c := range rs.Cells {
		for _, m := range []Measurement{c.Full, c.RTC} {
			fmt.Fprintf(w, "%-7d %-6s %14s %14s %14s\n",
				rs.Config.RPQCounts[i], m.Strategy, ms(m.SharedData), ms(m.PreJoin), ms(m.Remainder))
		}
	}
}

// TableIVRow is one dataset-statistics row of Table IV.
type TableIVRow struct {
	Spec  datagen.DatasetSpec
	Stats graph.Stats
}

// RunTableIV generates every dataset and reports its statistics.
func RunTableIV(cfg RunConfig) ([]TableIVRow, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	var rows []TableIVRow
	for i, spec := range realSpecs(cfg) {
		g, err := spec.Generate(cfg.Seed + int64(100+i))
		if err != nil {
			return nil, err
		}
		rows = append(rows, TableIVRow{Spec: spec, Stats: g.Stats()})
	}
	for n := 0; n <= cfg.MaxN; n++ {
		g, err := datagen.PaperRMATN(n, cfg.ScaleExp, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		rows = append(rows, TableIVRow{Spec: datagen.RMATSpec(n, cfg.ScaleExp), Stats: g.Stats()})
	}
	return rows, nil
}

// RenderTableIV prints the Table IV statistics.
func RenderTableIV(w io.Writer, rows []TableIVRow) {
	fmt.Fprintln(w, "Table IV — statistics of datasets")
	fmt.Fprintf(w, "%-9s %10s %10s %6s %10s\n", "dataset", "|V|", "|E|", "|Σ|", "|E|/|V||Σ|")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %10d %10d %6d %10.4f\n",
			r.Spec.Name, r.Stats.Vertices, r.Stats.Edges, r.Stats.Labels, r.Stats.DegreePerLabel)
	}
}

// TableIIIRow measures the complexity comparison of Table III on real
// workload sub-queries: computing R+_G on G_R (FullSharing's shared
// data) versus R̄+_Ḡ on Ḡ_R (the RTC).
type TableIIIRow struct {
	R string
	// Vertex/edge counts of G_R and Ḡ_R.
	VR, ER, VBar, EBar int
	// FullTime/RTCTime are the measured closure-computation times.
	FullTime, RTCTime time.Duration
	// FullPairs/RTCPairs are the space sizes |R+_G| and |R̄+_Ḡ|.
	FullPairs, RTCPairs int
}

// RunTableIII measures Table III's quantities on the RMAT_3 workload.
func RunTableIII(cfg RunConfig) ([]TableIIIRow, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	g, err := datagen.PaperRMATN(3, cfg.ScaleExp, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sets, err := makeWorkload(g, cfg, 1)
	if err != nil {
		return nil, err
	}
	var rows []TableIIIRow
	for _, r := range buildQueriesUnion(sets) {
		gr := reduceR(g, r)

		t0 := time.Now()
		full := tc.BFS(gr)
		fullTime := time.Since(t0)

		t0 = time.Now()
		comps := scc.Tarjan(gr)
		cond := scc.Condense(gr, comps)
		reduced := tc.BFS(cond)
		rtcTime := time.Since(t0)

		rows = append(rows, TableIIIRow{
			R:         r.String(),
			VR:        gr.NumActive(),
			ER:        gr.NumEdges(),
			VBar:      comps.NumComponents(),
			EBar:      cond.NumEdges(),
			FullTime:  fullTime,
			RTCTime:   rtcTime,
			FullPairs: full.NumPairs(),
			RTCPairs:  reduced.NumPairs(),
		})
	}
	return rows, nil
}

// RenderTableIII prints the measured Table III comparison.
func RenderTableIII(w io.Writer, rows []TableIIIRow) {
	fmt.Fprintln(w, "Table III — measured cost of R+G (Full, on G_R) vs R̄+Ḡ (RTC, on Ḡ_R), RMAT_3 workload Rs")
	fmt.Fprintf(w, "%-10s %7s %8s %7s %8s %12s %12s %12s %12s\n",
		"R", "|VR|", "|ER|", "|V̄R̄|", "|ĒR̄|", "Full(ms)", "RTC(ms)", "|R+G|", "|R̄+Ḡ|")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %7d %8d %7d %8d %12s %12s %12d %12d\n",
			r.R, r.VR, r.ER, r.VBar, r.EBar, ms(r.FullTime), ms(r.RTCTime), r.FullPairs, r.RTCPairs)
	}
}
