// Command bench is the repository's benchmark. It measures the simulator
// from outside, timing calls into the public APIs of its packages on four
// workloads, checks that every simulated result is unchanged, and prints
// each metric by name with its unit. BENCHMARK.json at the repository
// root declares the workloads and metrics; bench/README.md explains them.
//
// Run it from the repository root:
//
//	bash bench/run.sh                          # every workload
//	bash bench/run.sh -workload serve-mix      # one workload
//	bash bench/run.sh -trace 1                 # per-layer numbers
//	bash bench/run.sh -compare a.json b.json   # apply the bounds
//
// Each rep of a workload runs in a fresh child process (the program
// re-executes itself with -one), so every rep pays the empty caches and
// fresh heap a user pays, and its peak RSS is its own. Reps run one at a
// time; the load comes from that single process.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Paths are relative to the repository root, where the program runs.
const (
	specPath         = "BENCHMARK.json"
	fingerprintsPath = "bench/testdata/fingerprints.json"
)

// defaultSeed is the seed whose fingerprints are frozen.
const defaultSeed = 1

// minReps is the least number of untraced reps per workload, whatever
// the budget, so every metric has a spread. Smoke runs check outputs,
// not timing, and take one.
const minReps, smokeMinReps = 2, 1

type options struct {
	workloads string
	seed      uint64
	seconds   int
	trace     int
	traceOut  string
	out       string
	smoke     bool
	compare   bool
	refreeze  bool
	history   string
	commit    string

	one string // set only by the parent, for a child process
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workloads, "workload", "all", "comma-separated workloads to run, or all")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "input seed: VM i runs workload seed `N`+i")
	fs.IntVar(&o.seconds, "seconds", 25, "measurement budget per workload: reps start while they fit")
	fs.IntVar(&o.trace, "trace", 0, "1 adds a traced rep after the untraced ones and runs the micro table; prints the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", "bench-trace.json", "Chrome trace of the traced rep; the workload name is inserted before .json")
	fs.StringVar(&o.out, "out", "bench-results.json", "results file (empty: none)")
	fs.BoolVar(&o.smoke, "smoke", false, "smoke sizes: tiny clusters, 50 serve runs, 2 experiments, tiny micro counts")
	fs.BoolVar(&o.compare, "compare", false, "compare results A B under BENCHMARK.json's bounds; each side is a file or a comma-separated list of runs")
	fs.BoolVar(&o.refreeze, "refreeze", false, "rewrite the frozen fingerprints from this run (default seed only)")
	fs.StringVar(&o.history, "history", "", "append this run's results as one line to `FILE`")
	fs.StringVar(&o.commit, "commit", "unknown", "commit recorded in the results")
	fs.StringVar(&o.one, "one", "", "internal: run one rep of a workload in this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", o.trace)
		return 2
	}
	switch {
	case o.one != "":
		return child(o, stdout, stderr)
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	return parent(o, stdout, stderr)
}

// child runs one rep in this process and prints its result.
func child(o options, stdout, stderr io.Writer) int {
	w, ok := workloadByName(o.one)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.one)
		return 2
	}
	r := &rep{seed: o.seed, smoke: o.smoke}
	if o.trace == 1 {
		r.tr = newTracer()
	}
	res := runRep(w, r)
	if r.tr != nil && o.traceOut != "" {
		if err := r.tr.writeChrome(o.traceOut); err != nil {
			fmt.Fprintf(stderr, "bench: trace: %v\n", err)
		}
	}
	if err := writeRep(stdout, res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	load := func(list string) ([]results, error) {
		var runs []results
		for _, path := range strings.Split(list, ",") {
			r, err := loadResults(path)
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
		}
		return runs, nil
	}
	a, err := load(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := load(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if !compare(stdout, spec, a, b) {
		return 1
	}
	return 0
}

// selectWorkloads resolves the -workload list.
func selectWorkloads(list string) ([]*workloadDef, error) {
	if list == "all" {
		return workloads, nil
	}
	var out []*workloadDef
	for _, name := range strings.Split(list, ",") {
		w, ok := workloadByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, w)
	}
	return out, nil
}

func parent(o options, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	ws, err := selectWorkloads(o.workloads)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	frozen, err := loadFingerprints(fingerprintsPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	res := results{
		Commit:  o.commit,
		Date:    time.Now().UTC().Format(time.RFC3339),
		Nproc:   runtime.NumCPU(),
		Go:      runtime.Version(),
		Seed:    o.seed,
		Seconds: o.seconds,
		Trace:   o.trace == 1,
		Smoke:   o.smoke,
	}
	var micros map[string]float64
	for _, w := range ws {
		wr := measure(o, w, exe, stderr)
		if o.trace == 1 {
			if micros == nil {
				fmt.Fprintln(stderr, "bench: micro table")
				micros = micro(o.smoke)
			}
			addMicro(&wr, micros)
		}
		checkFingerprint(o, &wr, frozen)
		res.Workloads = append(res.Workloads, wr)
		printTable(stdout, wr)
	}
	if o.refreeze {
		if err := frozen.save(fingerprintsPath); err != nil {
			fmt.Fprintf(stderr, "bench: refreeze: %v\n", err)
			return 1
		}
	}
	if err := saveResults(o, res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := contractLine(spec, res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure runs untraced reps of w while the next one fits the budget,
// at least minReps of them, then with tracing one traced rep, and
// aggregates. The end-to-end numbers come from the untraced reps only.
func measure(o options, w *workloadDef, exe string, log io.Writer) workloadResult {
	wr := workloadResult{Name: w.name, Metrics: map[string]summary{}}
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var longest time.Duration
	var plain, traced []repResult
	var rss []float64
	least := minReps
	if o.smoke {
		least = smokeMinReps
	}
	add := func(isTraced bool) {
		t := time.Now()
		rr, maxRSS, err := launch(exe, w.name, o, isTraced, log)
		if took := time.Since(t); took > longest {
			longest = took
		}
		wr.Attempted += rr.Attempted
		wr.Failed += rr.Failed
		wr.Errors = append(wr.Errors, rr.Errors...)
		if err != nil {
			wr.Attempted++
			wr.Failed++
			wr.Errors = append(wr.Errors, err.Error())
			return
		}
		if wr.Fingerprint == "" {
			wr.Fingerprint = rr.Fingerprint
		} else if rr.Fingerprint != wr.Fingerprint {
			wr.Failed++
			wr.Errors = append(wr.Errors, fmt.Sprintf("rep %d fingerprint %s differs from the first rep's %s", len(plain)+len(traced)+1, short(rr.Fingerprint), short(wr.Fingerprint)))
		}
		if isTraced {
			traced = append(traced, rr)
			return
		}
		plain = append(plain, rr)
		rss = append(rss, maxRSS)
	}
	for i := 0; i < least || time.Since(start)+longest <= budget; i++ {
		add(false)
	}
	if o.trace == 1 {
		add(true)
	}
	wr.Reps, wr.TracedReps = len(plain), len(traced)

	collect := func(reps []repResult) {
		values := map[string][]float64{}
		for _, rr := range reps {
			for name, v := range rr.Metrics {
				values[name] = append(values[name], v)
			}
		}
		for name, xs := range values {
			if _, done := wr.Metrics[name]; !done {
				wr.Metrics[name] = summarize(unitOf(name), xs)
			}
		}
	}
	collect(plain)
	collect(traced)
	if len(rss) > 0 {
		wr.Metrics["max_rss_mb"] = summarize("MB", rss)
	}
	if run, ok := wr.Metrics["run_s"]; ok {
		if ev, ok := wr.Metrics["sim.events"]; ok && ev.Median > 0 {
			wr.Metrics["sim.host_ns_per_event"] = summarize("ns", []float64{run.Median * 1e9 / ev.Median})
		}
		if tr, ok := wr.Metrics["trace.run_s"]; ok {
			wr.Metrics["trace_overhead_frac"] = summarize("ratio", []float64{tr.Median/run.Median - 1})
		}
	}
	wr.Correct = wr.Failed == 0
	return wr
}

// launch runs one rep in a child process and returns its result and
// peak RSS in MB.
func launch(exe, name string, o options, traced bool, log io.Writer) (repResult, float64, error) {
	args := []string{"-one", name, "-seed", strconv.FormatUint(o.seed, 10)}
	if traced {
		args = append(args, "-trace", "1", "-trace-out", traceFile(o.traceOut, name))
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = log
	err := cmd.Run()
	var rr repResult
	if err != nil {
		return rr, 0, fmt.Errorf("%s rep: %v", name, err)
	}
	text := strings.TrimSpace(out.String())
	if i := strings.LastIndexByte(text, '\n'); i >= 0 {
		text = text[i+1:]
	}
	if err := json.Unmarshal([]byte(text), &rr); err != nil {
		return rr, 0, fmt.Errorf("%s rep: bad result line: %v", name, err)
	}
	var maxRSS float64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		maxRSS = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	return rr, maxRSS, nil
}

// traceFile inserts the workload name before the trace file's extension.
func traceFile(path, workload string) string {
	if path == "" {
		return ""
	}
	base := strings.TrimSuffix(path, ".json")
	return base + "." + workload + ".json"
}

// addMicro folds the micro table into a workload's per-layer metrics and
// derives the access-path accounting check from it.
func addMicro(wr *workloadResult, micros map[string]float64) {
	for name, v := range micros {
		wr.Metrics[name] = summarize(unitOf(name), []float64{v})
	}
	slice, ok := wr.Metrics["engine.slice_s"]
	if !ok || slice.Median <= 0 {
		return
	}
	var modelNs float64
	for _, app := range fillApps {
		if acc, ok := wr.Metrics["accesses."+app.name]; ok {
			modelNs += acc.Median * (micros["hypervisor.access_batch_ns"] + micros["workload.fill_ns."+app.name])
		}
	}
	wr.Metrics["access.model_frac"] = summarize("ratio", []float64{modelNs / 1e9 / slice.Median})
}

func saveResults(o options, res results) error {
	if o.out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if o.history == "" {
		return nil
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(o.history, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// contractLine is the last line of the output: correctness, operation
// counts and, without tracing, every end-to-end metric or, with it,
// every per-layer metric BENCHMARK.json declares. With more than one
// workload the metric names carry a "workload/" prefix.
func contractLine(spec benchSpec, res results) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	want := spec.EndToEnd
	if res.Trace {
		want = spec.PerLayer
	}
	for _, wr := range res.Workloads {
		line.Correct = line.Correct && wr.Correct
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		for _, m := range want {
			s, ok := wr.Metrics[m.Name]
			if !ok {
				return nil, fmt.Errorf("%s: metric %s was not measured", wr.Name, m.Name)
			}
			key := m.Name
			if len(res.Workloads) > 1 {
				key = wr.Name + "/" + m.Name
			}
			line.Metrics[key] = value{Value: s.Median, Unit: s.Unit}
		}
	}
	return json.Marshal(line)
}
