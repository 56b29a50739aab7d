// damon-profile: run the DAMON profiler (§6.3) against a LibLinear-style
// workload and render its region view of the address space over time —
// the same kind of picture the paper's Figure 4 was captured with — then
// contrast the probing cost with Demeter's PEBS feed on an identical run.
//
//	go run ./examples/damon-profile
package main

import (
	"fmt"
	"strings"

	"demeter/internal/core"
	"demeter/internal/damon"
	"demeter/internal/engine"
	"demeter/internal/experiments"
	"demeter/internal/hypervisor"
	"demeter/internal/sim"
	"demeter/internal/tmm"
	"demeter/internal/workload"
)

const (
	fmemFrames = 1400
	smemFrames = 7000
	features   = 6860
	ops        = 600_000
)

// newRig boots one VM running the LibLinear-style workload under pol.
func newRig(pol tmm.Policy) (*experiments.Cluster, *hypervisor.VM, *engine.Executor) {
	c, err := experiments.NewCluster("pmem", fmemFrames, smemFrames)
	if err != nil {
		panic(err)
	}
	vm, err := c.NewVM(4, fmemFrames, smemFrames)
	if err != nil {
		panic(err)
	}
	x, err := c.Attach(vm, workload.Must(workload.NewLibLinear(features, ops, 7)), pol)
	if err != nil {
		panic(err)
	}
	return c, vm, x
}

func renderSnapshot(s damon.Snapshot, lo, hi uint64) string {
	const cols = 72
	row := make([]uint32, cols)
	peak := uint32(1)
	for _, r := range s.Regions {
		if r.EndPage <= lo || r.StartPage >= hi {
			continue
		}
		c0 := int(uint64(cols) * (max(r.StartPage, lo) - lo) / (hi - lo))
		c1 := int(uint64(cols) * (min(r.EndPage, hi) - lo) / (hi - lo))
		for c := c0; c <= c1 && c < cols; c++ {
			row[c] = max(row[c], r.NrAccesses)
			peak = max(peak, r.NrAccesses)
		}
	}
	shades := []byte(" .:-=+*#%@")
	var b strings.Builder
	b.WriteByte('|')
	for _, v := range row {
		b.WriteByte(shades[int(uint32(len(shades)-1)*v/peak)])
	}
	b.WriteByte('|')
	return b.String()
}

func main() {
	fmt.Println("DAMON profiling a LibLinear-style run (hot weights + streamed features)")
	fmt.Println()

	// Pass 1: DAMON profiler, rendering each aggregation snapshot. It
	// only watches, so no tiering design runs beside it.
	c, vm, x := newRig(tmm.NewStatic())
	cfg := damon.DefaultConfig()
	cfg.SamplingInterval = 100 * sim.Microsecond
	cfg.AggregationInterval = 10 * sim.Millisecond
	cfg.MaxRegions = 120
	prof, err := damon.NewProfiler(cfg)
	if err != nil {
		panic(err)
	}

	// Render over the whole tracked span (heap weights + mmap features).
	heapLo, _ := vm.Proc.HeapRange()
	mmapLo, mmapHi := vm.Proc.MmapRange()
	lo, hi := min(heapLo, mmapLo)>>12, mmapHi>>12

	prof.OnAgg = func(s damon.Snapshot) {
		fmt.Printf("%8s %s regions=%d\n", sim.Time(s.At).String(), renderSnapshot(s, lo, hi), len(s.Regions))
	}
	if err := prof.Attach(c.Eng, vm); err != nil {
		panic(err)
	}
	if !c.Run(100 * sim.Second) {
		panic("run did not finish")
	}
	prof.Detach()
	fmt.Printf("\nDAMON cost: %d probes, %d TLB flushes, %v tracking CPU\n",
		prof.Samples, prof.Flushes, vm.Ledger.Total(hypervisor.CompTrack))

	// Pass 2: same run under Demeter's PEBS feed for the cost contrast.
	dcfg := core.DefaultConfig()
	dcfg.EpochPeriod = sim.Millisecond
	dcfg.SamplePeriod = 7
	dcfg.Params.GranularityPages = 32
	d := core.New(dcfg)
	c2, vm2, x2 := newRig(d)
	if !c2.Run(100 * sim.Second) {
		panic("run did not finish")
	}
	c2.Detach()
	fmt.Printf("Demeter cost on the identical run: %d PEBS samples, %d TLB flushes, %v tracking CPU\n",
		d.Stats().Samples, vm2.TLB.Stats().SingleFlushes, vm2.Ledger.Total(hypervisor.CompTrack))
	fmt.Printf("runtimes: DAMON-profiled %v vs Demeter-managed %v\n", x.Runtime(), x2.Runtime())
	fmt.Println("\nThe left edge (heap weights) should darken: that is the hot range")
	fmt.Println("DAMON gradually localizes via A-bit probes — the paper's §6.3 contrast.")
}
