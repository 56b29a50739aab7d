// Quickstart: one VM on a DRAM+PMEM host, a skewed GUPS workload, and
// Demeter's guest-delegated TMM promoting the hot set.
//
// It runs the same workload twice — once with static first-touch
// placement and once with Demeter attached — and prints the placement and
// runtime difference.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"demeter/internal/core"
	"demeter/internal/experiments"
	"demeter/internal/sim"
	"demeter/internal/tmm"
	"demeter/internal/workload"
)

const (
	fmemFrames = 4096  // 16 MiB fast tier
	smemFrames = 20480 // 80 MiB slow tier (1:5 ratio, like the paper)
	footprint  = 16384 // 64 MiB GUPS table
	ops        = 400_000
)

func run(pol tmm.Policy) (runtime sim.Duration, hotFast float64) {
	c, err := experiments.NewCluster("pmem", fmemFrames, smemFrames)
	if err != nil {
		panic(err)
	}
	vm, err := c.NewVM(4, fmemFrames, smemFrames)
	if err != nil {
		panic(err)
	}
	wl := workload.Must(workload.NewGUPS(footprint, ops, 42))
	x, err := c.Attach(vm, wl, pol)
	if err != nil {
		panic(err)
	}
	defer c.Detach()
	if !c.Run(100 * sim.Second) {
		panic("workload did not finish")
	}

	// Ground truth: how much of the GUPS hot section ended up in FMEM?
	hotStart, hotPages := wl.HotRange()
	base := wl.Region() >> 12
	inFast := 0
	for p := uint64(0); p < hotPages; p++ {
		if fast, mapped := vm.ResidentTier(base + hotStart + p); mapped && fast {
			inFast++
		}
	}
	return x.Runtime(), float64(inFast) / float64(hotPages)
}

func main() {
	fmt.Println("Demeter quickstart: GUPS hotset on a 1:5 DRAM:PMEM VM")
	fmt.Println()

	staticRT, staticHot := run(tmm.NewStatic())
	fmt.Printf("static placement : runtime %-10v hot set in FMEM: %4.0f%%\n",
		staticRT, staticHot*100)

	cfg := core.DefaultConfig()
	cfg.EpochPeriod = 2 * sim.Millisecond // compressed t_split
	cfg.SamplePeriod = 17                 // compressed PEBS period
	cfg.Params.GranularityPages = 64
	d := core.New(cfg)
	demeterRT, demeterHot := run(d)
	fmt.Printf("with Demeter     : runtime %-10v hot set in FMEM: %4.0f%%\n",
		demeterRT, demeterHot*100)

	st := d.Stats()
	fmt.Println()
	fmt.Printf("speedup: %.2fx\n", float64(staticRT)/float64(demeterRT))
	fmt.Printf("Demeter activity: %d PEBS samples, %d epochs, %d pages promoted "+
		"(%d by balanced swap), %d range-tree leaves\n",
		st.Samples, st.Epochs, st.Promoted, st.SwapPairs, d.Tree().Leaves())
}
