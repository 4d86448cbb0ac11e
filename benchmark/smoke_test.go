package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// smokeScale and smokeWork shrink every workload to a 2^6-vertex graph
// and a handful of operations, so the whole harness runs in tier-1.
const smokeScale = 6

var smokeWork = work{legs: [3]int{1, 1, 1}, drains: 2, requests: 200, rounds: 2, setups: 1}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	return config{workload: workload, seed: 3, seconds: 5, trace: trace, scale: smokeScale, work: smokeWork, outDir: t.TempDir()}
}

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesHarness pins BENCHMARK.json to the harness's
// own catalogue: same workloads, same metric names in the same order,
// same units, and the contract's limits on names, bounds and set-up.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	d := loadDeclared(t)
	if d.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, harness default is %d", d.RunSeconds, defaultSeconds)
	}
	if len(d.Paths) != 1 || d.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", d.Paths)
	}
	if len(d.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, harness has %d", len(d.Workloads), len(workloadNames))
	}
	for i, w := range d.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, harness has %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(d.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, harness has %d", len(d.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range d.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s (%s), harness has %s (%s)", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("setup_s (s, lower) is not declared")
	}
	if len(d.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, harness has %d", len(d.PerLayer), len(perLayer))
	}
	for i, m := range d.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), harness has %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if !nameRE.MatchString(m.name) || m.unit == "" || seen[m.name] {
				t.Errorf("metric %q (unit %q): bad or repeated name, or no unit", m.name, m.unit)
			}
			seen[m.name] = true
		}
	}
}

// TestSmokeAllWorkloads runs every workload, untraced and traced, and
// checks that each reports exactly its declared metrics, all answers
// right.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, name, trace)
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", name, trace, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			var line struct {
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(res.finalLine()), &line); err != nil {
				t.Fatalf("%s: final line: %v", name, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: final line has %d metrics, want %d", name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.name]
				if !ok || got.Value == nil || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s missing or without value/unit", name, trace, m.name)
				}
				if !trace && ok && got.Value != nil && *got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, m.name, *got.Value)
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			}
		}
	}
}

// TestSeededInputsRepeat asserts that two generations from one seed
// are byte-identical and that the seed matters.
func TestSeededInputsRepeat(t *testing.T) {
	gen := func(seed int64) []byte {
		in, err := paperInputs(smokeScale, seed)
		if err != nil {
			t.Fatal(err)
		}
		in.addHotScript(seed, 2, 50)
		in.addChurnScript(seed, 6)
		dense, err := denseInputs(smokeScale-1, seed)
		if err != nil {
			t.Fatal(err)
		}
		return append(in.canonical(), dense.canonical()...)
	}
	if !bytes.Equal(gen(5), gen(5)) {
		t.Error("two generations from seed 5 differ")
	}
	if bytes.Equal(gen(5), gen(6)) {
		t.Error("seeds 5 and 6 generate the same inputs")
	}
}

// TestCountMetricsRepeat asserts that every count-valued layer metric
// is identical across two traced runs of one seed, on the library
// workload and on the one with the most moving parts.
func TestCountMetricsRepeat(t *testing.T) {
	for _, name := range []string{"paper-batch", "serve-churn"} {
		a, err := runWorkload(smokeConfig(t, name, true))
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(smokeConfig(t, name, true))
		if err != nil {
			t.Fatal(err)
		}
		counts := 0
		for _, m := range perLayer {
			if m.unit != "count" {
				continue
			}
			counts++
			if a.Metrics[m.name].Value != b.Metrics[m.name].Value {
				t.Errorf("%s: %s = %v then %v", name, m.name, a.Metrics[m.name].Value, b.Metrics[m.name].Value)
			}
		}
		if counts == 0 {
			t.Fatal("no count metrics in the catalogue")
		}
	}
}
