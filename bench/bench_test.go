package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent re-executes itself with -one for every rep.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-one" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at smoke size, traced, with the micro
// table at tiny counts. Every metric BENCHMARK.json names must be
// measured with its unit, the smoke fingerprints must match the frozen
// ones, and the results file and the traces must parse.
func TestSmoke(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	tmp := t.TempDir()
	out, traceOut := filepath.Join(tmp, "results.json"), filepath.Join(tmp, "trace.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-smoke", "-trace", "1", "-seconds", "0", "-out", out, "-trace-out", traceOut}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}

	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(spec.Workloads) {
		t.Fatalf("results hold %d workloads, BENCHMARK.json declares %d", len(res.Workloads), len(spec.Workloads))
	}
	for i, wr := range res.Workloads {
		if wr.Name != spec.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, wr.Name, spec.Workloads[i].Name)
		}
		if !wr.Correct || wr.Failed != 0 {
			t.Errorf("%s: %d/%d ops failed: %v", wr.Name, wr.Failed, wr.Attempted, wr.Errors)
		}
		var trace struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if data, err := os.ReadFile(traceFile(traceOut, wr.Name)); err != nil {
			t.Errorf("%s: %v", wr.Name, err)
		} else if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("%s: trace has %d events, err %v", wr.Name, len(trace.TraceEvents), err)
		}
		for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			s, ok := wr.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s not measured", wr.Name, m.Name)
			case s.Unit != m.Unit:
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wr.Name, m.Name, s.Unit, m.Unit)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}

	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Errorf("last line: correct %v, %d/%d failed", last.Correct, last.Failed, last.Attempted)
	}
	if want := len(spec.PerLayer) * len(spec.Workloads); len(last.Metrics) != want {
		t.Errorf("last line has %d metrics, want %d", len(last.Metrics), want)
	}
}

// TestSummarizeMatchesPythonQuantiles pins the quartiles to Python's
// statistics.quantiles(data, n=4), which the bounds are checked with.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	cases := []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		s := summarize("s", c.xs)
		for _, p := range []struct{ got, want float64 }{{s.Q1, c.q1}, {s.Median, c.median}, {s.Q3, c.q3}} {
			if math.Abs(p.got-p.want) > 1e-12 {
				t.Errorf("summarize(%v) = q1 %v median %v q3 %v, want %v %v %v", c.xs, s.Q1, s.Median, s.Q3, c.q1, c.median, c.q3)
				break
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "sim_accesses_per_s", Better: "higher", Bound: 0.10}
	setup := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}
	steady := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 10} }
	cases := []struct {
		m    metricSpec
		a, b summary
		want string
	}{
		{lower, steady(10), steady(10.9), "within bound"},
		{lower, steady(10), steady(11.5), "worse"},
		{higher, steady(10), steady(9.2), "within bound"},
		{higher, steady(10), steady(8.5), "worse"},
		{lower, summary{Median: 10, Q1: 8, Q3: 12, N: 10}, steady(10), "unresolved"},
		{lower, steady(10), summarize("s", []float64{10.5}), "unresolved"},
		{setup, summary{Median: 60e-6, Q1: 45e-6, Q3: 70e-6, N: 10}, summary{Median: 2e-3, Q1: 1e-3, Q3: 3e-3, N: 10}, "within bound"},
		{setup, steady(0.04), steady(0.052), "worse"},
	}
	for _, c := range cases {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}
