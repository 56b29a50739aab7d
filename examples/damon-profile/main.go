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
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/sim"
	"demeter/internal/workload"
)

const (
	fmemFrames = 1400
	smemFrames = 7000
	features   = 6860
	ops        = 600_000
)

func newRig() (*sim.Engine, *hypervisor.VM, *engine.Executor, *workload.LibLinear) {
	eng := sim.NewEngine()
	m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(fmemFrames, smemFrames))
	vm, err := m.NewVM(hypervisor.VMConfig{
		VCPUs: 4, GuestFMEM: fmemFrames, GuestSMEM: smemFrames,
		FMEMBacking: 0, SMEMBacking: 1,
	})
	if err != nil {
		panic(err)
	}
	wl := workload.Must(workload.NewLibLinear(features, ops, 7))
	return eng, vm, engine.NewExecutor(eng, vm, wl), wl
}

func renderSnapshot(s damon.Snapshot, lo, hi uint64) string {
	const cols = 72
	row := make([]uint32, cols)
	var max uint32
	for _, r := range s.Regions {
		if r.EndPage <= lo || r.StartPage >= hi {
			continue
		}
		c0 := int(uint64(cols) * (maxU64(r.StartPage, lo) - lo) / (hi - lo))
		c1 := int(uint64(cols) * (minU64(r.EndPage, hi) - lo) / (hi - lo))
		for c := c0; c <= c1 && c < cols; c++ {
			if r.NrAccesses > row[c] {
				row[c] = r.NrAccesses
			}
			if r.NrAccesses > max {
				max = r.NrAccesses
			}
		}
	}
	if max == 0 {
		max = 1
	}
	shades := []byte(" .:-=+*#%@")
	var b strings.Builder
	b.WriteByte('|')
	for _, v := range row {
		b.WriteByte(shades[int(uint32(len(shades)-1)*v/max)])
	}
	b.WriteByte('|')
	return b.String()
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func main() {
	fmt.Println("DAMON profiling a LibLinear-style run (hot weights + streamed features)")
	fmt.Println()

	// Pass 1: DAMON profiler, rendering each aggregation snapshot.
	eng, vm, x, wl := newRig()
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
	lo, hi := minU64(heapLo, mmapLo)>>12, mmapHi>>12
	_ = wl

	prof.OnAgg = func(s damon.Snapshot) {
		fmt.Printf("%8s %s regions=%d\n", sim.Time(s.At).String(), renderSnapshot(s, lo, hi), len(s.Regions))
	}
	prof.Attach(eng, vm)
	if !engine.RunAll(eng, 100*sim.Second, x) {
		panic("run did not finish")
	}
	prof.Detach()
	fmt.Printf("\nDAMON cost: %d probes, %d TLB flushes, %v tracking CPU\n",
		prof.Samples, prof.Flushes, vm.Ledger.Total(hypervisor.CompTrack))

	// Pass 2: same run under Demeter's PEBS feed for the cost contrast.
	eng2, vm2, x2, _ := newRig()
	dcfg := core.DefaultConfig()
	dcfg.EpochPeriod = sim.Millisecond
	dcfg.SamplePeriod = 7
	dcfg.Params.GranularityPages = 32
	d := core.New(dcfg)
	d.Attach(eng2, vm2)
	if !engine.RunAll(eng2, 100*sim.Second, x2) {
		panic("run did not finish")
	}
	d.Detach()
	fmt.Printf("Demeter cost on the identical run: %d PEBS samples, %d TLB flushes, %v tracking CPU\n",
		d.Stats().Samples, vm2.TLB.Stats().SingleFlushes, vm2.Ledger.Total(hypervisor.CompTrack))
	fmt.Printf("runtimes: DAMON-profiled %v vs Demeter-managed %v\n", x.Runtime(), x2.Runtime())
	fmt.Println("\nThe left edge (heap weights) should darken: that is the hot range")
	fmt.Println("DAMON gradually localizes via A-bit probes — the paper's §6.3 contrast.")
}
