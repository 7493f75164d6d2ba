package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// The benchmark's self-test: every workload runs briefly in both modes
// with no failed operation, the metric names agree with BENCHMARK.json,
// and a corrupted output is counted as a failed operation.

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	for _, tc := range []struct {
		list string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.defs) {
			t.Errorf("%s lists %d metrics, the benchmark prints %d", tc.list, len(tc.json), len(tc.defs))
			continue
		}
		for i, d := range tc.defs {
			if tc.json[i].Name != d.name || tc.json[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s (%s), the benchmark prints %s (%s)",
					tc.list, i, tc.json[i].Name, tc.json[i].Unit, d.name, d.unit)
			}
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// resultLine parses the final JSON line render returns.
func resultLine(t *testing.T, rep *report, defs []metricDef) map[string]any {
	t.Helper()
	line, err := rep.render(defs)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	if len(out) != 4 || out["correct"] == nil || out["attempted"] == nil || out["failed"] == nil {
		t.Fatalf("result line keys: %v", out)
	}
	if got := len(out["metrics"].(map[string]any)); got != len(defs) {
		t.Fatalf("result line has %d metrics, want %d", got, len(defs))
	}
	return out
}

func TestEveryWorkloadRunsBriefly(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 7, seconds: 400 * time.Millisecond, trace: traced, out: t.TempDir()}
			rep, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			out := resultLine(t, rep, defs)
			if rep.attempted < 2 || rep.failed != 0 || out["correct"] != true {
				t.Errorf("%s (trace %v): attempted %d, failed %d", name, traced, rep.attempted, rep.failed)
			}
			if !traced {
				for _, d := range endToEnd {
					if rep.metrics[d.name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, rep.metrics[d.name])
					}
				}
			}
		}
	}
}

func TestPerturbedStatisticCountsAsFailed(t *testing.T) {
	for _, name := range workloadNames() {
		cfg := runConfig{seed: 7, seconds: 200 * time.Millisecond, perturb: true, out: t.TempDir()}
		rep, err := workloads[name](cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.failed != 1 {
			t.Errorf("%s: a corrupted output gave %d failed operations, want 1", name, rep.failed)
		}
		if out := resultLine(t, rep, endToEnd); out["correct"] != false {
			t.Errorf("%s: correct = %v with a failed operation", name, out["correct"])
		}
	}
}
