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
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"demeter/internal/daemon"
	"demeter/internal/experiments"
	"demeter/internal/explore"
	"demeter/internal/fault"
	"demeter/internal/obs"
)

var (
	scaleFlag  = flag.String("scale", "quick", "experiment scale: quick or tiny")
	vms        = flag.Int("vms", 0, "override concurrent VM count (0 = scale default)")
	parallel   = flag.Int("parallel", 1, "concurrent cluster runs (0 = all cores, 1 = sequential)")
	only       = flag.String("only", "", "comma-separated experiment ids to run (run/top)")
	skip       = flag.String("skip", "", "comma-separated experiment ids to exclude (run/top)")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
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
	// Accept flags on either side of the subcommand: demeter-sim run
	// -only table1 parses the trailing flags here.
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
// -only runs its ids in the order given; without it the registry order
// holds, and -skip never reorders.
func selectExperiments(only, skip string) ([]experiments.Experiment, error) {
	es := experiments.All()
	byID := make(map[string]experiments.Experiment, len(es))
	for _, e := range es {
		byID[e.ID] = e
	}
	if only != "" {
		ids, err := lookupIDs("-only", only, byID)
		if err != nil {
			return nil, err
		}
		es = es[:0]
		for _, id := range ids {
			es = append(es, byID[id])
		}
	}
	if skip != "" {
		ids, err := lookupIDs("-skip", skip, byID)
		if err != nil {
			return nil, err
		}
		es = slices.DeleteFunc(es, func(e experiments.Experiment) bool { return slices.Contains(ids, e.ID) })
	}
	if len(es) == 0 {
		return nil, fmt.Errorf("no experiments selected")
	}
	return es, nil
}

// lookupIDs splits a -only/-skip list and rejects an unknown or repeated
// id, naming the flag and the id.
func lookupIDs(flagName, list string, byID map[string]experiments.Experiment) ([]string, error) {
	ids := splitIDs(list)
	for i, id := range ids {
		if _, ok := byID[id]; !ok {
			return nil, fmt.Errorf("%s: unknown experiment %q (try 'demeter-sim list')", flagName, id)
		}
		if slices.Contains(ids[:i], id) {
			return nil, fmt.Errorf("%s: experiment %q listed twice", flagName, id)
		}
	}
	return ids, nil
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

usage: demeter-sim [flags] <experiment-id | list | run | top | chaos | hunt | serve>

subcommands:
  list    show available experiments
  run     run the suite (filter with -only/-skip, fan out with -parallel)
  top     run experiments (filter with -only/-skip) and print the -top N
          hottest counters from the merged metrics
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

performance: the repository benchmark lives under bench/ (bash
bench/run.sh); see bench/README.md.

flags (accepted before or after the subcommand):
`)
	flag.PrintDefaults()
}
