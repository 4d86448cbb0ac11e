package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
)

// metricValue is one reported number. N is the sample count behind a
// percentile or median; Parts are the same quantity per pass
// (paper-batch) or per fifth of the measured phase (the others), which
// is what gives -compare quartiles from a single run; Alias is the
// workload's own name for a generic end-to-end metric.
type metricValue struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	N     int       `json:"n,omitempty"`
	Parts []float64 `json:"parts,omitempty"`
	Alias string    `json:"alias,omitempty"`
}

// header describes the machine and build a results file came from.
type header struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
}

func newHeader() header {
	h := header{
		Commit:     os.Getenv("BENCH_COMMIT"), // set by run.sh from git
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    clientCount(),
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	return h
}

// clientCount is the number of closed-loop HTTP clients: all load comes
// from this one process, so more clients than CPUs would only measure
// the harness queueing behind itself.
func clientCount() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// result is one workload run: the record written to the results file
// and the source of the final JSON line.
type result struct {
	Header    header                 `json:"header"`
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     bool                   `json:"trace"`
	FixedWork map[string]int         `json:"fixed_work"`
	WallS     float64                `json:"measured_wall_s"`
	Truncated bool                   `json:"truncated,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Detail holds ungated derived values: the workload's native
	// series that have no generic slot, and ratios with their bases.
	Detail map[string]metricValue `json:"detail,omitempty"`
	Errors []string               `json:"errors,omitempty"`
}

// checker counts operations and keeps the first few failure messages.
// An operation fails when it errors, times out or returns an answer
// that differs from the oracle's.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errors    []string
}

const keptErrors = 10

// op records one attempted operation; a non-nil err marks it failed.
func (c *checker) op(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.fail(err)
	}
}

// violation records a failed invariant that is not itself an
// operation (a cross-epoch hit, a fingerprint drift on reopen).
func (c *checker) violation(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fail(err)
}

func (c *checker) fail(err error) {
	c.failed++
	if len(c.errors) < keptErrors {
		c.errors = append(c.errors, err.Error())
	}
}

// finish copies the checker's verdict into res and checks that res
// carries exactly the metric set the run mode promises.
func (c *checker) finish(res *result) error {
	res.Attempted, res.Failed, res.Errors = c.attempted, c.failed, c.errors
	res.Correct = c.failed == 0 && c.attempted > 0
	want := endToEnd
	if res.Trace {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("%s: reported %d metrics, want %d", res.Workload, len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s not reported", res.Workload, d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("%s: metric %s has unit %q, want %q", res.Workload, d.name, m.Unit, d.unit)
		}
	}
	return nil
}

// print writes every metric by name with its unit, then the detail
// values, in a stable order.
func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "== %s seed=%d trace=%v: attempted=%d failed=%d failed_share=%.6f measured_wall=%.2fs work=%v\n",
		res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.WallS, res.FixedWork)
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		printMetric(w, d.name, res.Metrics[d.name])
	}
	names := make([]string, 0, len(res.Detail))
	for name := range res.Detail {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		printMetric(w, "("+name+")", res.Detail[name])
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "   FAILED: %s\n", e)
	}
}

func printMetric(w io.Writer, name string, m metricValue) {
	fmt.Fprintf(w, "   %-34s %16.6g %-6s", name, m.Value, m.Unit)
	if m.N > 0 {
		fmt.Fprintf(w, " n=%d", m.N)
	}
	if m.Alias != "" {
		fmt.Fprintf(w, " [%s]", m.Alias)
	}
	fmt.Fprintln(w)
}

// finalLine renders the one-object summary the benchmark contract asks
// for as the last line of standard output.
func (res *result) finalLine() string {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]valueUnit{}}
	for name, m := range res.Metrics {
		out.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // only floats, strings and ints: cannot fail
	}
	return string(line)
}

// write stores the run under dir as run-<workload>-seed<N>[-trace].json.
func (res *result) write(dir string) error {
	name := fmt.Sprintf("run-%s-seed%d", res.Workload, res.Seed)
	if res.Trace {
		name += "-trace"
	}
	data, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".json"), append(data, '\n'), 0o644)
}

// setSetup reports setup_s: the median of the run's complete set-ups.
func (res *result) setSetup(medianS float64, times []float64) {
	res.Metrics["setup_s"] = metricValue{Value: medianS, Unit: "s", N: len(times), Parts: times}
}

// setLatency reports latency_ms_p50 and latency_ms_tail from the
// pooled samples (ms, in issue order) of the measured phase, with the
// same statistics per fifth of it as parts.
func (res *result) setLatency(lat []float64, tailPercentile float64, p50Alias, tailAlias string) {
	tail := func(v []float64) float64 { return percentile(v, tailPercentile) }
	res.Metrics["latency_ms_p50"] = metricValue{Value: median(lat), Unit: "ms", N: len(lat), Parts: perFifth(lat, median), Alias: p50Alias}
	res.Metrics["latency_ms_tail"] = metricValue{Value: tail(lat), Unit: "ms", N: len(lat), Parts: perFifth(lat, tail), Alias: tailAlias}
}
