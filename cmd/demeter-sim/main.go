// Command demeter-sim runs the reproduction experiments: every table and
// figure from the paper's evaluation, plus the design ablations.
//
// Usage:
//
//	demeter-sim list                      # show available experiments
//	demeter-sim table1                    # run one experiment
//	demeter-sim run                       # run everything
//	demeter-sim run -only figure2,table1  # run a subset
//	demeter-sim run -skip figure8         # run everything but
//	demeter-sim -parallel 0 run           # fan out across all cores
//	demeter-sim -scale tiny figure2       # quick smoke run
//	demeter-sim -scale tiny chaos         # fault-injection run with invariant checks
//	demeter-sim hunt -seed 1              # adversarial scenario search -> corpus
//	demeter-sim serve -config cfg.json    # memtierd-style interactive daemon
//	demeter-sim bench -quick              # regression numbers → BENCH_results.json
//	demeter-sim bench -rebaseline         # refresh BENCH_baseline.json
//	demeter-sim -metrics m.json figure2   # dump the merged metrics snapshot
//	demeter-sim -events t.jsonl figure2   # dump event journals (chrome://tracing)
//	demeter-sim -top 10 top figure2       # print the hottest counters
//	demeter-sim -cpuprofile cpu.pprof figure7
//
// Reports are byte-identical at every -parallel setting: experiments fan
// out into independent deterministic cluster runs and the reports are
// assembled in a fixed order.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"demeter/internal/daemon"
	"demeter/internal/engine"
	"demeter/internal/experiments"
	"demeter/internal/explore"
	"demeter/internal/fault"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/obs"
	"demeter/internal/sim"
	"demeter/internal/workload"
)

var (
	scaleFlag  = flag.String("scale", "quick", "experiment scale: quick or tiny")
	vms        = flag.Int("vms", 0, "override concurrent VM count (0 = scale default)")
	parallel   = flag.Int("parallel", 1, "concurrent cluster runs (0 = all cores, 1 = sequential)")
	only       = flag.String("only", "", "comma-separated experiment ids to run (run/bench)")
	skip       = flag.String("skip", "", "comma-separated experiment ids to exclude (run/bench)")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	quick      = flag.Bool("quick", false, "bench: tiny scale and a representative experiment subset")
	benchOut   = flag.String("out", "BENCH_results.json", "bench: output path")
	faults     = flag.String("faults", "", "chaos/hunt fault schedule, e.g. 'migrate.copy-fail=0.05,balloon.op-timeout=0.2' (empty = every point at its default rate)")
	seed       = flag.Uint64("seed", 1, "chaos/hunt scenario seed (same seed + config = identical run)")
	floor      = flag.Float64("floor", 0, "chaos/hunt throughput floor vs the fault-free rung (0 = default 0.5)")
	ladder     = flag.String("ladder", "", "chaos ladder multipliers, e.g. '0,1,4,8'; rung 0 must be 0 (empty = default 0,1,4)")
	gens       = flag.Int("generations", 3, "hunt: breeding rounds")
	population = flag.Int("population", 8, "hunt: candidates per generation")
	budget     = flag.Int("budget", 0, "hunt: max candidate evaluations incl. minimizer probes (0 = unlimited)")
	corpusDir  = flag.String("corpus", "internal/explore/corpus", "hunt: freeze minimized failures here ('' = report only)")
	metricsOut = flag.String("metrics", "", "write the merged metrics snapshot (JSON) to this file")
	eventsOut  = flag.String("events", "", "write event journals (chrome://tracing JSONL) to this file")
	topN       = flag.Int("top", 10, "top: number of counters to print")
	baseline   = flag.String("baseline", "BENCH_baseline.json", "bench: access-path baseline file")
	rebaseline = flag.Bool("rebaseline", false, "bench: record the measured access paths as the new baseline")
	gate       = flag.Bool("gate", false, fmt.Sprintf("bench: fail when an access path regresses past the baseline envelope (+%.0f%%)", benchEnvelope*100))
	batchSize  = flag.Int("batch", engine.DefaultBatchSize, "accesses per engine slice batch (must cover the largest workload transaction)")
	healthMon  = flag.Bool("health", false, "chaos: arm per-VM delegation health monitors (degraded-mode failover + recovery handback)")
	heartbeat  = flag.Int("heartbeat", 0, "chaos: health check period in classification epochs (0 = default 4; requires -health)")
	failover   = flag.Bool("failover", true, "chaos: attach a host-side fallback TMM while degraded; -failover=false freezes tiering instead (requires -health)")
	serveCfg   = flag.String("config", "configs/serve.sample.json", "serve: daemon config file")
	serveIn    = flag.String("script", "", "serve: command script file ('' = stdin)")
)

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	cmd := flag.Arg(0)
	// Accept flags on either side of the subcommand: demeter-sim bench
	// -quick parses the trailing flags here.
	if err := flag.CommandLine.Parse(flag.Args()[1:]); err != nil {
		os.Exit(2)
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick()
	case "tiny":
		scale = experiments.Tiny()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}
	if *vms > 0 {
		scale.VMs = *vms
	}
	workers := experiments.SetParallelism(*parallel)
	if err := engine.SetDefaultBatchSize(*batchSize); err != nil {
		fmt.Fprintf(os.Stderr, "bad -batch: %v\n", err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer writeMemProfile()

	if *eventsOut != "" {
		experiments.SetEventCapture(true)
	}

	switch cmd {
	case "list":
		for _, e := range experiments.All() {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
		fmt.Printf("%-22s %s\n", "chaos", "Fault-injection ladder with end-of-run invariant checks")
		fmt.Printf("%-22s %s\n", "hunt", "Adversarial scenario search; freezes failures into the corpus")
		fmt.Printf("%-22s %s\n", "top", "Run experiments and print the hottest counters")
		fmt.Printf("%-22s %s\n", "serve", "Interactive daemon: trackers × policies under a live workload stream")
	case "chaos":
		runChaos(scale, *faults, *seed, *floor, *ladder)
	case "hunt":
		runHunt(*scaleFlag)
	case "run", "all":
		es, err := selectExperiments(*only, *skip)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
		runSuite(es, scale, workers)
	case "top":
		es, err := selectExperiments(*only, *skip)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
		runTop(es, scale, *topN)
	case "bench":
		if err := runBench(scale, workers); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	case "serve":
		if err := runServe(*serveCfg, *serveIn); err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
	default:
		e, ok := experiments.Get(cmd)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try 'demeter-sim list')\n", cmd)
			os.Exit(2)
		}
		runSuite([]experiments.Experiment{e}, scale, workers)
	}

	if err := writeObsOutputs(); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
}

// runTop executes the selected experiments for their side effects on the
// global metrics collector and prints the N hottest counters.
func runTop(es []experiments.Experiment, s experiments.Scale, n int) {
	experiments.RunExperiments(s, es)
	snap := experiments.GlobalMetrics().Condense()
	top := snap.Top(n)
	fmt.Printf("top %d counters across %d experiment(s) (scale %s):\n", len(top), len(es), s.Name)
	for _, m := range top {
		fmt.Printf("  %-28s %d\n", m.Name, uint64(m.Value))
	}
}

// writeObsOutputs dumps the global metrics snapshot and captured event
// journals when -metrics / -events were given.
func writeObsOutputs() error {
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
		if err := experiments.GlobalMetrics().WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("-metrics: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
		fmt.Printf("wrote metrics snapshot to %s\n", *metricsOut)
	}
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			return fmt.Errorf("-events: %w", err)
		}
		clusters := experiments.CapturedEvents()
		var total int
		for _, c := range clusters {
			if err := obs.WriteTrace(f, c.Seq, c.Label, c.Events); err != nil {
				f.Close()
				return fmt.Errorf("-events: %w", err)
			}
			total += len(c.Events)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("-events: %w", err)
		}
		fmt.Printf("wrote %d events from %d cluster run(s) to %s\n", total, len(clusters), *eventsOut)
	}
	return nil
}

// selectExperiments applies the -only / -skip filters to the registry.
func selectExperiments(only, skip string) ([]experiments.Experiment, error) {
	all := experiments.All()
	byID := make(map[string]experiments.Experiment, len(all))
	for _, e := range all {
		byID[e.ID] = e
	}
	var es []experiments.Experiment
	if only != "" {
		for _, id := range splitIDs(only) {
			e, ok := byID[id]
			if !ok {
				return nil, fmt.Errorf("-only: unknown experiment %q (try 'demeter-sim list')", id)
			}
			es = append(es, e)
		}
	} else {
		es = all
	}
	if skip != "" {
		drop := map[string]bool{}
		for _, id := range splitIDs(skip) {
			if _, ok := byID[id]; !ok {
				return nil, fmt.Errorf("-skip: unknown experiment %q (try 'demeter-sim list')", id)
			}
			drop[id] = true
		}
		kept := es[:0]
		for _, e := range es {
			if !drop[e.ID] {
				kept = append(kept, e)
			}
		}
		es = kept
	}
	if len(es) == 0 {
		return nil, fmt.Errorf("no experiments selected")
	}
	return es, nil
}

func splitIDs(s string) []string {
	var out []string
	for _, id := range strings.Split(s, ",") {
		if id = strings.ToLower(strings.TrimSpace(id)); id != "" {
			out = append(out, id)
		}
	}
	return out
}

func runSuite(es []experiments.Experiment, s experiments.Scale, workers int) {
	start := time.Now()
	reports := experiments.RunExperiments(s, es)
	for _, r := range reports {
		fmt.Printf("=== %s: %s\n", r.ID, r.Title)
		fmt.Printf("    scale: %s, VMs: %d\n\n", s.Name, s.VMs)
		fmt.Println(r.Output)
		fmt.Printf("(completed in %.1fs)\n\n", r.Elapsed.Seconds())
	}
	if len(es) > 1 {
		fmt.Printf("suite: %d experiments in %.1fs wall (%d workers)\n",
			len(es), time.Since(start).Seconds(), workers)
	}
}

// benchBaseline is the checked-in access-path regression reference
// (BENCH_baseline.json). `bench -rebaseline` rewrites it from the
// measured run; `bench -gate` fails when a measurement drifts more
// than benchEnvelope past it. Both hot paths are ratcheted: the scalar
// per-access path and the batched path Executor.slice actually drives.
type benchBaseline struct {
	AccessPathNsPerOp  float64 `json:"access_path_ns_per_op"`
	AccessBatchNsPerOp float64 `json:"access_batch_ns_per_op"`
	AllocsPerOp        int64   `json:"allocs_per_op"`
	RecordedAt         string  `json:"recorded_at"`
	Note               string  `json:"note,omitempty"`
}

// benchEnvelope is the tolerated fractional slowdown vs the baseline.
// It must sit above host noise, not measurement noise: the interleaved
// min-of-reps measurement is stable within a run, but hosts drift
// between frequency/memory modes by ~20% on minute-to-day timescales,
// so a tight envelope flags the weather, not the code. 30% still fails
// a real hot-path regression loudly, and the allocation gate — the
// contract that actually protects the fast path — stays exact.
const benchEnvelope = 0.30

// loadBaseline reads and strictly validates the baseline file: a key the
// struct does not know (a typo, or a stale file from a newer tool) and a
// missing or non-positive ns/op key both fail loudly rather than gating
// against garbage.
func loadBaseline(path string) (benchBaseline, error) {
	var b benchBaseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if b.AccessPathNsPerOp <= 0 {
		return b, fmt.Errorf("%s: access_path_ns_per_op missing or not positive", path)
	}
	if b.AccessBatchNsPerOp <= 0 {
		return b, fmt.Errorf("%s: access_batch_ns_per_op missing or not positive", path)
	}
	return b, nil
}

func writeBaseline(path string, b benchBaseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// quickBenchIDs is the representative subset 'bench -quick' measures: the
// cheapest experiments that together cover the single-VM path, the
// multi-VM grid, provisioning and the heat-map loop.
var quickBenchIDs = "table1,table2,figure2,figure4,figure6"

type benchExperiment struct {
	ID              string  `json:"id"`
	WallSeconds     float64 `json:"wall_seconds"`
	Accesses        uint64  `json:"accesses"`
	AccessesPerSec  float64 `json:"accesses_per_sec"`
	AllocsPerAccess float64 `json:"allocs_per_access"`
}

// benchMicro is one microbenchmark measurement within benchReport.
type benchMicro struct {
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op"`
	SpeedupVsBase   float64 `json:"speedup_vs_baseline"`
}

type benchReport struct {
	Scale            string            `json:"scale"`
	GOMAXPROCS       int               `json:"gomaxprocs"`
	Workers          int               `json:"workers"`
	Timestamp        string            `json:"timestamp"`
	AccessPath       benchMicro        `json:"access_path"`
	AccessBatch      benchMicro        `json:"access_batch"`
	Experiments      []benchExperiment `json:"experiments"`
	SuiteWallSeconds float64           `json:"suite_wall_seconds"`
}

// runBench measures the access-path microbenchmark plus per-experiment
// wall time, simulated-access throughput and allocation rate, and writes
// the regression record to -out.
func runBench(s experiments.Scale, workers int) error {
	onlyIDs, skipIDs := *only, *skip
	if *quick {
		s = experiments.Tiny()
		if onlyIDs == "" {
			onlyIDs = quickBenchIDs
		}
	}
	es, err := selectExperiments(onlyIDs, skipIDs)
	if err != nil {
		return err
	}

	rep := benchReport{
		Scale:      s.Name,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}

	// The two microbenchmarks run interleaved for several reps and each
	// key keeps its minimum ns/op: hosts drift between frequency/memory
	// modes on second timescales, so two single back-to-back measurements
	// can land in different modes and report a nonsense ratio, while the
	// min over interleaved reps samples both paths in the same best mode.
	micros := []struct {
		name string
		fn   func(*testing.B)
		m    benchMicro
	}{
		{name: "access path", fn: benchmarkAccessPath},
		{name: "access batch", fn: benchmarkAccessBatch},
	}
	const microReps = 3
	fmt.Printf("bench: microbenchmarks (%d interleaved reps)...\n", microReps)
	for r := 0; r < microReps; r++ {
		for i := range micros {
			res := testing.Benchmark(micros[i].fn)
			ns := float64(res.T.Nanoseconds()) / float64(res.N)
			if r == 0 || ns < micros[i].m.NsPerOp {
				micros[i].m.NsPerOp = ns
			}
			if a := res.AllocsPerOp(); a > micros[i].m.AllocsPerOp {
				micros[i].m.AllocsPerOp = a
			}
		}
	}
	for i := range micros {
		if micros[i].m.AllocsPerOp > 0 {
			return fmt.Errorf("%s allocates (%d allocs/op); the fast path must stay allocation-free",
				micros[i].name, micros[i].m.AllocsPerOp)
		}
	}
	rep.AccessPath, rep.AccessBatch = micros[0].m, micros[1].m
	if *rebaseline {
		nb := benchBaseline{
			AccessPathNsPerOp:  rep.AccessPath.NsPerOp,
			AccessBatchNsPerOp: rep.AccessBatch.NsPerOp,
			AllocsPerOp:        0,
			RecordedAt:         time.Now().UTC().Format(time.RFC3339),
			Note:               "written by demeter-sim bench -rebaseline",
		}
		if err := writeBaseline(*baseline, nb); err != nil {
			return fmt.Errorf("rebaseline: %w", err)
		}
		fmt.Printf("bench: recorded new baseline %.2f / %.2f ns/op (scalar / batch) in %s\n",
			nb.AccessPathNsPerOp, nb.AccessBatchNsPerOp, *baseline)
	}
	base, err := loadBaseline(*baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w (run 'demeter-sim bench -rebaseline' to record one)", err)
	}
	gateOne := func(name string, m *benchMicro, baseNs float64) error {
		m.BaselineNsPerOp = baseNs
		m.SpeedupVsBase = baseNs / m.NsPerOp
		fmt.Printf("bench: %s %.2f ns/op, %d allocs/op (baseline %.2f ns/op, %.2fx)\n",
			name, m.NsPerOp, m.AllocsPerOp, baseNs, m.SpeedupVsBase)
		if *gate && m.NsPerOp > baseNs*(1+benchEnvelope) {
			return fmt.Errorf("%s %.2f ns/op exceeds baseline %.2f ns/op by more than %.0f%%",
				name, m.NsPerOp, baseNs, benchEnvelope*100)
		}
		return nil
	}
	if err := gateOne("access path", &rep.AccessPath, base.AccessPathNsPerOp); err != nil {
		return err
	}
	if err := gateOne("access batch", &rep.AccessBatch, base.AccessBatchNsPerOp); err != nil {
		return err
	}
	fmt.Printf("bench: batch speedup %.2fx over scalar this run\n",
		rep.AccessPath.NsPerOp/rep.AccessBatch.NsPerOp)

	suiteStart := time.Now()
	for _, e := range es {
		experiments.TakeBenchAccesses()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		e.Run(s)
		wall := time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		accesses := experiments.TakeBenchAccesses()
		r := benchExperiment{ID: e.ID, WallSeconds: wall, Accesses: accesses}
		if wall > 0 {
			r.AccessesPerSec = float64(accesses) / wall
		}
		if accesses > 0 {
			r.AllocsPerAccess = float64(after.Mallocs-before.Mallocs) / float64(accesses)
		}
		rep.Experiments = append(rep.Experiments, r)
		fmt.Printf("bench: %-22s %7.2fs  %11d accesses  %10.3g acc/s  %.4f allocs/acc\n",
			e.ID, r.WallSeconds, r.Accesses, r.AccessesPerSec, r.AllocsPerAccess)
	}
	rep.SuiteWallSeconds = time.Since(suiteStart).Seconds()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*benchOut, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("bench: wrote %s (%d experiments, %.1fs)\n", *benchOut, len(es), rep.SuiteWallSeconds)
	return nil
}

// benchVM builds the standard microbenchmark cluster, mirroring
// internal/engine's benchMachine so the bench subcommand tracks the same
// hot paths the CI smoke job measures. The registry is attached: the
// zero-alloc guarantee is measured with observability enabled, as
// experiments run it.
func benchVM() (*hypervisor.VM, *workload.GUPS) {
	eng := sim.NewEngine()
	m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(22000, 110000))
	m.AttachObs(obs.New(0))
	vm, _ := m.NewVM(hypervisor.VMConfig{VCPUs: 4, GuestFMEM: 22000, GuestSMEM: 110000, FMEMBacking: 0, SMEMBacking: 1})
	wl := workload.Must(workload.NewGUPS(114688, 1<<40, 1))
	wl.Setup(vm.Proc)
	return vm, wl
}

func benchmarkAccessPath(b *testing.B) {
	vm, wl := benchVM()
	buf := make([]workload.Access, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		n, _ := wl.Fill(buf)
		for i := 0; i < n && done < b.N; i++ {
			vm.Access(buf[i].GVA, buf[i].Write)
			done++
		}
	}
}

// benchmarkAccessBatch is the batched twin, consuming the same stream
// through vm.AccessBatch the way Executor.slice does.
func benchmarkAccessBatch(b *testing.B) {
	vm, wl := benchVM()
	buf := make([]workload.Access, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		n, _ := wl.Fill(buf)
		if n > b.N-done {
			n = b.N - done
		}
		vm.AccessBatch(buf[:n])
		done += n
	}
}

// runServe boots the interactive daemon from a config file and drives
// it from a script file or stdin. The daemon is deterministic: one
// config plus one script replays to a byte-identical transcript.
func runServe(cfgPath, scriptPath string) error {
	cfg, err := daemon.LoadConfig(cfgPath)
	if err != nil {
		return err
	}
	d, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	in := io.Reader(os.Stdin)
	if scriptPath != "" {
		f, err := os.Open(scriptPath)
		if err != nil {
			return fmt.Errorf("-script: %w", err)
		}
		defer f.Close()
		in = f
	}
	return d.Serve(in, os.Stdout)
}

func writeMemProfile() {
	if *memprofile == "" {
		return
	}
	f, err := os.Create(*memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
	}
}

// runChaos runs the fault-injection ladder and exits nonzero when an
// invariant was violated (the report is printed either way).
func runChaos(s experiments.Scale, spec string, seed uint64, floor float64, ladderSpec string) {
	cfg := experiments.DefaultChaosConfig()
	cfg.Seed = seed
	cfg.Floor = floor // 0 = keep the default
	if spec != "" {
		sched, err := fault.ParseSchedule(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -faults: %v\n", err)
			os.Exit(2)
		}
		cfg.Schedule = sched
	}
	if ladderSpec != "" {
		rungs, err := parseLadder(ladderSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -ladder: %v\n", err)
			os.Exit(2)
		}
		cfg.Ladder = rungs
	}
	cfg.Health = *healthMon
	if *healthMon {
		cfg.HeartbeatEpochs = *heartbeat
		cfg.NoFailover = !*failover
	} else {
		healthKnobSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "heartbeat" || f.Name == "failover" {
				healthKnobSet = true
			}
		})
		if healthKnobSet {
			fmt.Fprintf(os.Stderr, "-heartbeat/-failover require -health\n")
			os.Exit(2)
		}
	}
	// Config problems are usage errors (exit 2); only invariant
	// violations from the run itself exit 1.
	if err := cfg.Normalized(s).Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "bad chaos config: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("=== chaos: fault-injection ladder\n")
	fmt.Printf("    scale: %s, VMs: %d, seed: %d\n\n", s.Name, s.VMs, seed)
	start := time.Now()
	report, err := experiments.RunChaos(s, cfg)
	fmt.Println(report)
	fmt.Printf("(completed in %.1fs)\n", time.Since(start).Seconds())
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
}

// parseLadder parses a comma-separated multiplier list.
func parseLadder(spec string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad multiplier %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty ladder")
	}
	return out, nil
}

// runHunt runs the adversarial scenario search. Hunts default to tiny
// scale (candidate evaluation is the inner loop; quick-scale ladders
// would make every generation minutes long) unless -scale was given
// explicitly. Finding failures is the hunt's purpose, so the exit status
// is zero even when scenarios were found and frozen.
func runHunt(scaleName string) {
	explicitScale := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "scale" {
			explicitScale = true
		}
	})
	if !explicitScale {
		scaleName = "tiny"
	}
	cfg := explore.Config{
		Seed:        *seed,
		Generations: *gens,
		Population:  *population,
		Budget:      *budget,
		CorpusDir:   *corpusDir,
		ScaleName:   scaleName,
		Floor:       *floor,
	}
	if *faults != "" {
		sched, err := fault.ParseSchedule(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -faults: %v\n", err)
			os.Exit(2)
		}
		cfg.BaseSchedule = sched
	}
	if *floor < 0 || *floor > 1 {
		fmt.Fprintf(os.Stderr, "bad -floor: %g outside [0, 1]\n", *floor)
		os.Exit(2)
	}
	start := time.Now()
	res, err := explore.Hunt(cfg)
	fmt.Print(res.Report)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hunt: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("(completed in %.1fs)\n", time.Since(start).Seconds())
}

func usage() {
	fmt.Fprintf(os.Stderr, `demeter-sim — Demeter (SOSP'25) reproduction harness

usage: demeter-sim [flags] <experiment-id | list | run | top | bench | chaos | hunt>

subcommands:
  list    show available experiments
  run     run the suite (filter with -only/-skip, fan out with -parallel)
  top     run experiments (filter with -only/-skip) and print the -top N
          hottest counters from the merged metrics
  bench   write regression numbers to BENCH_results.json (-quick for CI,
          -rebaseline to refresh BENCH_baseline.json, -gate to enforce it)
  chaos   fault-injection ladder with end-of-run invariant checks
          (-seed/-faults/-floor/-ladder; exits 1 on violations, report
          still printed; -health arms per-VM delegation monitors, tuned
          with -heartbeat N epochs and -failover=false for detect-only)
  hunt    adversarial scenario search: breed scenarios (-generations,
          -population, -budget), minimize failures, freeze them under
          -corpus as deterministic regression cases (defaults to -scale
          tiny; reports are byte-identical at any -parallel)
  serve   memtierd-style interactive daemon: open-ended simulation under
          a live workload stream, tracker × policy pairings from -config,
          commands from -script or stdin (run/stats/policy -dump
          accessed/tracker switch/vm add/vm remove/quit); one config +
          script replays to a byte-identical transcript
  <id>    run one experiment

observability: -metrics FILE dumps the merged metrics snapshot as JSON;
-events FILE dumps per-cluster event journals as chrome://tracing JSONL
(load via chrome://tracing or https://ui.perfetto.dev).

flags (accepted before or after the subcommand):
`)
	flag.PrintDefaults()
}
