// Package bench reproduces the paper's evaluation (Section V): the
// dataset statistics of Table IV, the complexity measurements behind
// Table III, and every series of Figures 10–15. Drivers return structured
// measurements; Render* methods print the same rows the paper plots.
package bench

import (
	"fmt"
	"time"

	"rtcshare/internal/core"
	"rtcshare/internal/datagen"
	"rtcshare/internal/eval"
	"rtcshare/internal/graph"
	"rtcshare/internal/pairs"
	"rtcshare/internal/rpq"
	"rtcshare/internal/rtc"
	"rtcshare/internal/workload"
)

// RunConfig controls the scale of an experiment run. The zero value is
// not usable; start from DefaultConfig.
type RunConfig struct {
	// ScaleExp is the RMAT vertex-count exponent: |V| = 2^ScaleExp.
	// The paper uses 13; the default here is 9 so a full reproduction
	// runs in minutes on a laptop. Ratios are scale-stable (see
	// EXPERIMENTS.md).
	ScaleExp int
	// MaxN bounds the RMAT_N degree sweep (N = 0..MaxN; degree 2^(N-2)).
	MaxN int
	// NumSets is the number of multiple-RPQ sets to average over
	// (paper: 90).
	NumSets int
	// NumRPQs is the set size for the degree sweep (paper: 4).
	NumRPQs int
	// RPQCounts is the set-size sweep of Experiment 2 (paper:
	// 1,2,4,6,8,10).
	RPQCounts []int
	// YagoVertices scales the Yago2s stand-in (degree preserved).
	YagoVertices int
	// RealVertices, when positive, scales Robots/Advogato/Youtube to
	// this vertex count too (degree preserved). Zero keeps the published
	// Table IV sizes.
	RealVertices int
	// Seed drives dataset and workload generation.
	Seed int64
	// Verify cross-checks that all strategies return identical result
	// counts on every query (slower; on by default in tests).
	Verify bool
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() RunConfig {
	return RunConfig{
		ScaleExp:  9,
		MaxN:      6,
		NumSets:   5,
		NumRPQs:   4,
		RPQCounts: []int{1, 2, 4, 6, 8, 10},
		// The real stand-ins keep Table IV's degree per label — the
		// statistic the paper's analysis rests on — at a laptop-friendly
		// vertex count. PaperConfig restores the published sizes.
		YagoVertices: 4096,
		RealVertices: 512,
		Seed:         2022, // ICDE 2022
		Verify:       false,
	}
}

// PaperConfig returns the paper's full protocol (2^13-vertex RMAT,
// 90 sets). Expect hours, exactly like the original C++ runs.
func PaperConfig() RunConfig {
	cfg := DefaultConfig()
	cfg.ScaleExp = 13
	cfg.NumSets = 90
	cfg.YagoVertices = 32768
	cfg.RealVertices = 0 // published Table IV sizes
	return cfg
}

// Measurement aggregates one (dataset, strategy, #RPQs) cell averaged
// over query sets: the paper's query response time, its three-part
// split, and the shared-data metrics of Figs. 12 and 13.
type Measurement struct {
	Dataset  string
	Degree   float64
	Strategy core.Strategy
	NumRPQs  int
	Sets     int

	// Response is the average query response time per set (Fig. 10/14).
	Response time.Duration
	// SharedData, PreJoin, Remainder split Response (Fig. 11/15).
	SharedData, PreJoin, Remainder time.Duration
	// SharedPairs is the average shared-structure size per set: |R̄+_Ḡ|
	// for RTC, |R+_G| for Full (Fig. 12). Zero for NoSharing.
	SharedPairs float64
	// ReducedVertices is the average |V̄_R̄| (RTC) or |V_R| (Full)
	// (Fig. 13). Zero for NoSharing.
	ReducedVertices float64
	// AvgSCCSize is the average vertices per SCC of G_R (RTC only).
	AvgSCCSize float64
	// ResultPairs is the total number of result pairs over all queries
	// and sets — a cross-strategy sanity check.
	ResultPairs int
}

// measureSets evaluates the first numRPQs queries of every set under one
// strategy, with a fresh engine per set (structures are shared among the
// queries of a set, as in the paper), and averages.
func measureSets(g *graph.Graph, sets []workload.Set, numRPQs int, strategy core.Strategy, name string) (Measurement, error) {
	m := Measurement{
		Dataset:  name,
		Degree:   g.DegreePerLabel(),
		Strategy: strategy,
		NumRPQs:  numRPQs,
		Sets:     len(sets),
	}
	var (
		totalShared, totalPre, totalRem  time.Duration
		totalPairs, totalVerts, totalSCC float64
		summarised                       int
	)
	for _, set := range sets {
		engine := core.New(g, core.Options{Strategy: strategy})
		queries := set.Queries
		if numRPQs < len(queries) {
			queries = queries[:numRPQs]
		}
		for _, q := range queries {
			res, err := engine.EvaluateRel(q)
			if err != nil {
				return m, fmt.Errorf("bench: %s/%v: evaluate %q: %w", name, strategy, q, err)
			}
			m.ResultPairs += res.Len()
		}
		st := engine.Stats()
		totalShared += st.SharedData
		totalPre += st.PreJoin
		totalRem += st.Remainder
		for _, s := range engine.SharedSummaries() {
			totalPairs += float64(s.SharedPairs)
			totalVerts += float64(s.ReducedVertices)
			totalSCC += s.AvgSCCSize
			summarised++
		}
	}
	n := time.Duration(len(sets))
	m.SharedData = totalShared / n
	m.PreJoin = totalPre / n
	m.Remainder = totalRem / n
	m.Response = m.SharedData + m.PreJoin + m.Remainder
	if summarised > 0 {
		m.SharedPairs = totalPairs / float64(summarised)
		m.ReducedVertices = totalVerts / float64(summarised)
		m.AvgSCCSize = totalSCC / float64(summarised)
	}
	return m, nil
}

// Cell is one dataset's measurements under the three strategies.
type Cell struct {
	Dataset string
	Degree  float64
	No      Measurement
	Full    Measurement
	RTC     Measurement
}

// measureCell runs all three strategies on one dataset and verifies the
// result counts agree when cfg.Verify is set.
func measureCell(cfg RunConfig, g *graph.Graph, sets []workload.Set, numRPQs int, name string) (Cell, error) {
	c := Cell{Dataset: name, Degree: g.DegreePerLabel()}
	var err error
	if c.No, err = measureSets(g, sets, numRPQs, core.NoSharing, name); err != nil {
		return c, err
	}
	if c.Full, err = measureSets(g, sets, numRPQs, core.FullSharing, name); err != nil {
		return c, err
	}
	if c.RTC, err = measureSets(g, sets, numRPQs, core.RTCSharing, name); err != nil {
		return c, err
	}
	if cfg.Verify {
		if c.No.ResultPairs != c.Full.ResultPairs || c.No.ResultPairs != c.RTC.ResultPairs {
			return c, fmt.Errorf("bench: %s: strategies disagree on result counts: No=%d Full=%d RTC=%d",
				name, c.No.ResultPairs, c.Full.ResultPairs, c.RTC.ResultPairs)
		}
	}
	return c, nil
}

// makeWorkload draws the multiple-RPQ sets for a graph.
func makeWorkload(g *graph.Graph, cfg RunConfig, maxRPQs int) ([]workload.Set, error) {
	wcfg := workload.DefaultConfig(cfg.NumSets, cfg.Seed)
	wcfg.MaxRPQs = maxRPQs
	return workload.Generate(g.Dict(), wcfg)
}

// ratio returns a/b guarding division by zero.
func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// fratio is ratio for float64 metrics.
func fratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms renders a duration in milliseconds with three significant decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}

// checkConfig validates a RunConfig before a run.
func checkConfig(cfg RunConfig) error {
	if cfg.ScaleExp <= 0 || cfg.ScaleExp > 24 {
		return fmt.Errorf("bench: ScaleExp %d out of range (1..24)", cfg.ScaleExp)
	}
	if cfg.MaxN < 0 || cfg.MaxN > 8 {
		return fmt.Errorf("bench: MaxN %d out of range (0..8)", cfg.MaxN)
	}
	if cfg.NumSets <= 0 {
		return fmt.Errorf("bench: NumSets must be positive")
	}
	if cfg.NumRPQs <= 0 {
		return fmt.Errorf("bench: NumRPQs must be positive")
	}
	if len(cfg.RPQCounts) == 0 {
		return fmt.Errorf("bench: RPQCounts must not be empty")
	}
	return nil
}

// realSpecs returns the real-dataset stand-ins at the configured scale.
func realSpecs(cfg RunConfig) []datagen.DatasetSpec {
	specs := datagen.RealDatasets()
	for i := range specs {
		switch {
		case specs[i].Name == "Yago2s" && cfg.YagoVertices > 0:
			specs[i] = specs[i].ScaledTo(cfg.YagoVertices)
		case cfg.RealVertices > 0:
			specs[i] = specs[i].ScaledTo(cfg.RealVertices)
		}
	}
	return specs
}

// reduceR evaluates R on g, seals R_G and performs the edge-level
// reduction G → G_R — the graph Table III and the ablations close.
func reduceR(g *graph.Graph, r rpq.Expr) *graph.DiGraph {
	b := pairs.NewBuilder(g.NumVertices())
	eval.New(g, r, eval.Options{}).AppendAll(b)
	return rtc.EdgeReduceRel(g.NumVertices(), b.Seal())
}

// buildQueriesUnion is a helper used by Table III: it extracts the
// distinct shared sub-queries of a workload.
func buildQueriesUnion(sets []workload.Set) []rpq.Expr {
	seen := make(map[string]bool)
	var out []rpq.Expr
	for _, s := range sets {
		k := s.R.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, s.R)
		}
	}
	return out
}
