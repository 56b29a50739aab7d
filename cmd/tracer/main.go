// Command tracer records workload access traces to disk and replays them
// through the simulator, demonstrating that replays are bit-identical to
// live runs.
//
//	tracer record -workload gups -out gups.trace
//	tracer replay -in gups.trace -ops 628672
//	tracer demo                                # record+replay+verify in one go
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"demeter/internal/core"
	"demeter/internal/experiments"
	"demeter/internal/guestos"
	"demeter/internal/mem"
	"demeter/internal/sim"
	"demeter/internal/trace"
	"demeter/internal/workload"
)

const (
	fmemFrames = 2048
	smemFrames = 10240
	footprint  = 10240
	ops        = 300_000
)

// buildWorkload returns the named workload, or a usage error.
func buildWorkload(name string) (workload.Workload, error) {
	switch name {
	case "gups":
		return workload.Must(workload.NewGUPS(footprint, ops, 1)), nil
	case "silo":
		return workload.Must(workload.NewSilo(footprint, ops/8, 1)), nil
	case "ycsb":
		return workload.Must(workload.NewYCSB(footprint, ops/2, 1, workload.YCSBB)), nil
	case "xsbench":
		return workload.Must(workload.NewXSBench(footprint, ops/5, 1)), nil
	}
	return nil, usageError(fmt.Sprintf("unknown workload %q (gups|silo|ycsb|xsbench)", name))
}

// guestProcess returns a fresh guest process to record through: replay
// runs in one laid out the same way, so the recorded addresses replay
// unchanged.
func guestProcess() *guestos.Process {
	return guestos.NewKernel(mem.PaperDRAMPMEM(fmemFrames, smemFrames)).NewProcess("record")
}

func runThrough(wl workload.Workload) sim.Duration {
	c, err := experiments.NewCluster("pmem", fmemFrames, smemFrames)
	if err != nil {
		panic(err)
	}
	vm, err := c.NewVM(4, fmemFrames, smemFrames)
	if err != nil {
		panic(err)
	}
	cfg := core.DefaultConfig()
	cfg.EpochPeriod = 2 * sim.Millisecond
	cfg.SamplePeriod = 17
	cfg.Params.GranularityPages = 64
	x, err := c.Attach(vm, wl, core.New(cfg))
	if err != nil {
		panic(err)
	}
	defer c.Detach()
	if !c.Run(300 * sim.Second) {
		panic("run did not finish")
	}
	return x.Runtime()
}

// usageError is a command-line mistake: it exits 2, as flag errors do.
// An empty one was already reported by the flag package.
type usageError string

func (e usageError) Error() string { return string(e) }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one tracer subcommand and returns its exit status: 0 on
// success, 2 on a usage error, and 1, after one "tracer: ..." line on
// stderr, when the input or the run fails.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "usage: tracer <record|replay|demo> [flags]")
		return 2
	}
	var err error
	switch args[0] {
	case "record":
		err = record(args[1:], stdout, stderr)
	case "replay":
		err = replay(args[1:], stdout, stderr)
	case "demo":
		err = demo(stdout)
	default:
		err = usageError(fmt.Sprintf("unknown subcommand %q", args[0]))
	}
	var usage usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &usage):
		if usage != "" {
			fmt.Fprintln(stderr, usage)
		}
		return 2
	}
	fmt.Fprintf(stderr, "tracer: %v\n", err)
	return 1
}

// parseFlags parses args into fs, reporting mistakes on stderr.
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError("")
	}
	return nil
}

// record writes a workload's access trace to a file.
func record(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	wlName := fs.String("workload", "gups", "workload to record")
	out := fs.String("out", "workload.trace", "output file")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	wl, err := buildWorkload(*wlName)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	count, err := trace.Record(f, wl, guestProcess())
	if err != nil {
		f.Close()
		return fmt.Errorf("record %s: %w", *out, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d accesses to %s (%.2f bytes/access)\n",
		count, *out, float64(st.Size())/float64(count))
	fmt.Fprintf(stdout, "replay with: tracer replay -in %s -ops %d\n", *out, count)
	return nil
}

// replay runs a recorded trace under Demeter.
func replay(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	in := fs.String("in", "workload.trace", "trace file")
	total := fs.Uint64("ops", 0, "access count recorded in the trace")
	initOps := fs.Uint64("init", 0, "init-sweep length of the original workload")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	rp, err := trace.NewReplayer("replay", f, *total, *initOps)
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	rt := runThrough(rp)
	if err := rp.Err(); err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	fmt.Fprintf(stdout, "replayed %d accesses under Demeter: runtime %v\n", *total, rt)
	return nil
}

// demo records GUPS to a temporary file, replays it, and checks that the
// replay's runtime equals the live run's.
func demo(stdout io.Writer) error {
	tmp, err := os.CreateTemp("", "demeter-*.trace")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	orig, err := buildWorkload("gups")
	if err != nil {
		return err
	}
	count, err := trace.Record(tmp, orig, guestProcess())
	if err != nil {
		tmp.Close()
		return fmt.Errorf("record: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	live, err := buildWorkload("gups")
	if err != nil {
		return err
	}
	liveRT := runThrough(live)
	f, err := os.Open(tmp.Name())
	if err != nil {
		return err
	}
	defer f.Close()
	rp, err := trace.NewReplayer("gups", f, count, orig.InitOps())
	if err != nil {
		return err
	}
	replayed := runThrough(rp)
	if err := rp.Err(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "live run:     %v\nreplayed run: %v\n", liveRT, replayed)
	if liveRT != replayed {
		fmt.Fprintln(stdout, "MISMATCH — replay diverged")
		return errors.New("replay diverged from the live run")
	}
	fmt.Fprintln(stdout, "replay is bit-identical to the live run ✓")
	return nil
}
