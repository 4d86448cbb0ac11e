package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadRuns reads one results file, or every untraced run-*.json of a
// directory, grouped by workload.
func loadRuns(path string) (map[string][]*result, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "run-*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	runs := map[string][]*result{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var res result
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !res.Trace {
			runs[res.Workload] = append(runs[res.Workload], &res)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no untraced results", path)
	}
	return runs, nil
}

// samplesOf returns the values -compare takes quartiles over: one per
// run when a side has several runs of the workload, the per-leg or
// per-fifth parts of its single run otherwise. fromParts tells the two
// apart: a part rests on a k-th of the run's samples, so the parts
// spread about sqrt(k) times wider than whole runs would.
func samplesOf(runs []*result, metric string) (values []float64, fromParts bool) {
	if len(runs) == 1 {
		if parts := runs[0].Metrics[metric].Parts; len(parts) >= 2 {
			return parts, true
		}
	}
	values = make([]float64, len(runs))
	for i, r := range runs {
		values[i] = r.Metrics[metric].Value
	}
	return values, false
}

// compareResults prints one row per (workload, end-to-end metric): both
// sides' medians with quartiles, the ratio with its base, and a verdict
// under the metric's bound: worse when the new median is worse than the
// old by more than the bound, unresolved when either side's own
// interquartile spread is wider than the bound (the runs cannot tell),
// ok otherwise. With one run per side the median is the run's reported
// value and the spread is that of its k parts divided by sqrt(k). It
// reports whether any row is not ok.
func compareResults(specPath, oldPath, newPath string, w io.Writer) (notOK bool, err error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	oldRuns, err := loadRuns(oldPath)
	if err != nil {
		return false, err
	}
	newRuns, err := loadRuns(newPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3] n\tnew median [q1, q3] n\tnew/old\tbound\tverdict")
	side := func(runs []*result, metric string) (med, spread float64, text string) {
		v, fromParts := samplesOf(runs, metric)
		med = median(v)
		if len(runs) == 1 {
			med = runs[0].Metrics[metric].Value
		}
		if len(v) < 2 {
			return med, 0, fmt.Sprintf("%.6g n=1", med)
		}
		q1, q3 := quartiles(v)
		spread = (q3 - q1) / med
		if fromParts {
			spread /= math.Sqrt(float64(len(v)))
		}
		return med, spread, fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", med, q1, q3, len(v))
	}
	for _, name := range workloadNames {
		o, n := oldRuns[name], newRuns[name]
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		for _, r := range append(append([]*result(nil), o...), n...) {
			if r.Failed > 0 {
				fmt.Fprintf(tw, "%s\tfailed operations\tcount\t\t\t\t0\tworse (%d of %d failed)\n", name, r.Failed, r.Attempted)
				notOK = true
				break
			}
		}
		for _, m := range spec.EndToEnd {
			oldMed, oldSpread, oldText := side(o, m.Name)
			newMed, newSpread, newText := side(n, m.Name)
			change := newMed/oldMed - 1 // positive = larger
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case change > m.Bound:
				verdict = "worse"
			case oldSpread > m.Bound || newSpread > m.Bound:
				verdict = "unresolved"
			}
			if verdict != "ok" {
				notOK = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%.4f (base %.6g)\t%.2f\t%s\n",
				name, m.Name, m.Unit, oldText, newText, newMed/oldMed, oldMed, m.Bound, verdict)
		}
	}
	return notOK, tw.Flush()
}
