package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// tiny returns options for a self-test run: a 5% corpus, 5% offered rates
// and a sub-second measurement.
func tiny(seed int64, trace bool) options {
	return options{seed: seed, duration: 400 * time.Millisecond, trace: trace, scale: 0.05, rateScale: 0.05, threads: 2}
}

// benchmarkJSON is the part of BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	if len(b.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(b.EndToEnd), len(e2eMetrics))
	}
	for i, m := range b.EndToEnd {
		if m.Name != e2eMetrics[i].name || m.Unit != e2eMetrics[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, e2eMetrics[i].name, e2eMetrics[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s %s, program has %s %s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

// TestEveryWorkloadEmitsItsMetrics runs every workload untraced and traced
// at tiny scale: each must pass its exactness gate and report every metric
// of the requested set, with its unit, and a positive value for every
// end-to-end metric.
func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			out, err := workloads[name](tiny(1, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res, err := assemble(out, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := e2eMetrics
			if trace {
				defs = layerMetrics
			}
			for _, d := range defs {
				m := res.Metrics[d.name]
				if m.Unit != d.unit {
					t.Errorf("%s: %s unit %q, want %q", name, d.name, m.Unit, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

func TestSeedChangesInputsNotMetricSet(t *testing.T) {
	a, err := generate("kdd-nomad-50", tiny(1, false), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate("kdd-nomad-50", tiny(2, false), 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := generate("kdd-nomad-50", tiny(1, false), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Users.Rows() != b.Users.Rows() || a.Items.Rows() != b.Items.Rows() {
		t.Fatal("seed changed the corpus shape")
	}
	if equalRows(a.Items.Row(0), b.Items.Row(0)) && equalRows(a.Users.Row(0), b.Users.Row(0)) {
		t.Error("seeds 1 and 2 generated the same inputs")
	}
	if !equalRows(a.Items.Row(0), again.Items.Row(0)) || !equalRows(a.Users.Row(0), again.Users.Row(0)) {
		t.Error("seed 1 generated different inputs twice")
	}
	if s1, s2 := requestStream(1, 100, 64), requestStream(2, 100, 64); equalInts(s1, s2) {
		t.Error("seeds 1 and 2 generated the same request stream")
	}
	for _, name := range []string{"batch-index", "serve-wire"} {
		sets := make([]string, 2)
		for i, seed := range []int64{1, 2} {
			out, err := workloads[name](tiny(seed, false))
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			var keys []string
			for key := range out.metrics {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			sets[i] = strings.Join(keys, ",")
		}
		if sets[0] != sets[1] {
			t.Errorf("%s: metric set changed with the seed: %s vs %s", name, sets[0], sets[1])
		}
	}
}

// TestInjectedWrongAnswerFailsTheRun checks that the exactness gate of every
// workload catches a wrong answer (a wrong final index under churn), and
// that the run then exits non-zero with correct=false.
func TestInjectedWrongAnswerFailsTheRun(t *testing.T) {
	for _, name := range workloadNames() {
		o := tiny(3, false)
		o.injectWrong = true
		out, err := workloads[name](o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := assemble(out, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: injected wrong answer not caught (attempted %d, failed %d)", name, res.Attempted, res.Failed)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "batch-bmm", "--trace", "2"},
		{"--workload", "batch-bmm", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestCoveredUnionsChildren(t *testing.T) {
	p := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := covered(p, kids); got != 40 {
		t.Errorf("covered = %d, want 40", got)
	}
}

func equalRows(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
