package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// summary is one metric's distribution over the reps of a run.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the median and quartiles of xs. The quartiles use
// the same exclusive method as Python's statistics.quantiles(n=4).
func summarize(unit string, xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	out := summary{Unit: unit, N: n}
	if n == 0 {
		return out
	}
	if n%2 == 1 {
		out.Median = s[n/2]
	} else {
		out.Median = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		out.Q1, out.Q3 = s[0], s[0]
		return out
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	out.Q1, out.Q3 = q(1), q(3)
	return out
}

// percentile returns the p-quantile of sorted xs by linear interpolation.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*(pos-float64(lo))
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var b benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// serveMetrics are end-to-end metrics only serve-mix has: the latency of
// its `run` commands, the median and 99th percentile of a session's 1000
// samples, as a median over reps. They are reported and compared like
// BENCHMARK.json's end-to-end metrics, which must exist on every
// workload, with the bound of the other host times.
var serveMetrics = []metricSpec{
	{Name: "run_p50_ms", Unit: "ms", Better: "lower", Bound: 0.24},
	{Name: "run_p99_ms", Unit: "ms", Better: "lower", Bound: 0.24},
}

// workloadResult is one workload's measured run.
type workloadResult struct {
	Name        string             `json:"name"`
	Reps        int                `json:"reps"`
	TracedReps  int                `json:"traced_reps,omitempty"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Correct     bool               `json:"correct"`
	Fingerprint string             `json:"fingerprint"`
	Errors      []string           `json:"errors,omitempty"`
	Metrics     map[string]summary `json:"metrics"`
}

// results is the content of bench-results.json and of each line of
// bench/history.jsonl.
type results struct {
	Commit    string           `json:"commit"`
	Date      string           `json:"date"`
	Nproc     int              `json:"nproc"`
	Go        string           `json:"go"`
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Smoke     bool             `json:"smoke,omitempty"`
	Workloads []workloadResult `json:"workloads"`
}

func loadResults(path string) (results, error) {
	var r results
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// setupFloor is the least change of setup_s, in seconds, that a
// comparison resolves, whatever its bound. Set-up takes a few
// milliseconds or less on three workloads, where a smaller change is
// GC and scheduling noise rather than work moved into set-up.
const setupFloor = 0.005

// verdict applies one metric's bound to a parent (a) and a change (b).
// A side whose interquartile range exceeds the tolerance cannot resolve
// a difference of that size, so the row is unresolved; so is a side of
// one sample, which has no spread to judge by.
func verdict(m metricSpec, a, b summary) string {
	tol := func(s summary) float64 {
		t := m.Bound * s.Median
		if m.Name == "setup_s" {
			t = math.Max(t, setupFloor)
		}
		return t
	}
	if a.N < 2 || b.N < 2 || a.Q3-a.Q1 > tol(a) || b.Q3-b.Q1 > tol(b) {
		return "unresolved"
	}
	worse := b.Median > a.Median+tol(a)
	if m.Better == "higher" {
		worse = b.Median < a.Median-tol(a)
	}
	if worse {
		return "worse"
	}
	return "within bound"
}

// side is one side of a comparison: a workload's metrics from one or
// more results files. With one file a metric's spread is its rep-to-rep
// spread; with several, each file is one run and the spread is that of
// the runs' medians, as a paired comparison of many runs measures it.
type side map[string]map[string]summary

func newSide(runs []results) side {
	values := map[string]map[string][]float64{}
	s := side{}
	for _, r := range runs {
		for _, wr := range r.Workloads {
			if values[wr.Name] == nil {
				values[wr.Name] = map[string][]float64{}
				s[wr.Name] = map[string]summary{}
			}
			for name, m := range wr.Metrics {
				values[wr.Name][name] = append(values[wr.Name][name], m.Median)
				if len(runs) == 1 {
					s[wr.Name][name] = m
				}
			}
		}
	}
	if len(runs) == 1 {
		return s
	}
	for wl, byMetric := range values {
		for name, xs := range byMetric {
			s[wl][name] = summarize(unitOf(name), xs)
		}
	}
	return s
}

// compare prints one row per workload and bounded metric present on
// both sides and reports whether every row is within its bound.
func compare(w io.Writer, spec benchSpec, a, b []results) bool {
	bounded := append(append([]metricSpec(nil), spec.EndToEnd...), serveMetrics...)
	sa, sb := newSide(a), newSide(b)
	ok := true
	fmt.Fprintf(w, "%-15s %-20s %-6s %8s  %-32s %-32s %s\n", "workload", "metric", "unit", "bound", "A median [q1, q3]", "B median [q1, q3]", "verdict")
	for _, wl := range spec.Workloads {
		wa, wb := sa[wl.Name], sb[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range bounded {
			sa, okA := wa[m.Name]
			sb, okB := wb[m.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(m, sa, sb)
			if v != "within bound" {
				ok = false
			}
			fmt.Fprintf(w, "%-15s %-20s %-6s %7.0f%%  %-32s %-32s %s\n", wl.Name, m.Name, m.Unit, m.Bound*100,
				fmt.Sprintf("%.6g [%.6g, %.6g]", sa.Median, sa.Q1, sa.Q3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", sb.Median, sb.Q1, sb.Q3), v)
		}
	}
	return ok
}

// printTable writes a workload's metrics, sorted by name, with units.
func printTable(w io.Writer, wr workloadResult) {
	fmt.Fprintf(w, "\n== %s: %d rep(s), %d traced; %d/%d ops failed; fingerprint %s\n",
		wr.Name, wr.Reps, wr.TracedReps, wr.Failed, wr.Attempted, short(wr.Fingerprint))
	for _, e := range wr.Errors {
		fmt.Fprintf(w, "   error: %s\n", e)
	}
	names := make([]string, 0, len(wr.Metrics))
	for name := range wr.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := wr.Metrics[name]
		fmt.Fprintf(w, "   %-34s %14.6g %-6s [q1 %.6g, q3 %.6g, n=%d]\n", name, s.Median, s.Unit, s.Q1, s.Q3, s.N)
	}
}

func short(fp string) string {
	if len(fp) > 16 {
		return fp[:16]
	}
	return fp
}

// unitOf gives each metric the program emits its unit, from its name.
// A unit may sit mid-name, before a per-kind suffix
// (track.counters_us.abit) or a denominator (balloon.inflate_ns_per_page).
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case name == "sim_accesses_per_s":
		return "1/s"
	case strings.HasPrefix(name, "ledger."):
		return "sim-ms" // simulated CPU time, not host time
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us") || strings.Contains(name, "_us."):
		return "us"
	case strings.HasSuffix(name, "_ns") || strings.Contains(name, "_ns.") || strings.Contains(name, "_ns_per_"):
		return "ns"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_frac") || strings.HasSuffix(name, "_rate"):
		return "ratio"
	}
	return "count"
}
