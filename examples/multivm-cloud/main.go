// multivm-cloud: a consolidated host running nine VMs with heterogeneous
// workloads (the paper's cloud setting), each managed by its own
// guest-delegated Demeter instance. Prints per-VM runtimes, placement
// quality and the aggregate management overhead in cores — the paper's
// scalability argument (§2.3.2) in one program.
//
//	go run ./examples/multivm-cloud
package main

import (
	"fmt"

	"demeter/internal/core"
	"demeter/internal/experiments"
	"demeter/internal/sim"
	"demeter/internal/workload"
)

const (
	vms       = 9
	fmemPerVM = 2048
	smemPerVM = 10240
	footprint = 10000
	opsPerVM  = 150_000
)

func buildWorkload(i int) workload.Workload {
	seed := uint64(i) + 1
	switch i % 3 {
	case 0:
		return workload.Must(workload.NewGUPS(footprint, opsPerVM, seed))
	case 1:
		return workload.Must(workload.NewSilo(footprint, opsPerVM/8, seed))
	default:
		return workload.Must(workload.NewXSBench(footprint, opsPerVM/5, seed))
	}
}

func main() {
	c, err := experiments.NewCluster("pmem", vms*fmemPerVM, vms*smemPerVM)
	if err != nil {
		panic(err)
	}
	var policies []*core.Demeter
	for i := 0; i < vms; i++ {
		vm, err := c.NewVM(4, fmemPerVM, smemPerVM)
		if err != nil {
			panic(err)
		}
		cfg := core.DefaultConfig()
		cfg.EpochPeriod = 2 * sim.Millisecond
		cfg.SamplePeriod = 17
		cfg.Params.GranularityPages = 64
		d := core.New(cfg)
		if _, err := c.Attach(vm, buildWorkload(i), d); err != nil {
			panic(err)
		}
		policies = append(policies, d)
	}
	if !c.Run(300 * sim.Second) {
		panic("cluster did not finish")
	}
	defer c.Detach()

	fmt.Printf("consolidated host: %d VMs, %d FMEM + %d SMEM frames each (1:5)\n\n",
		vms, fmemPerVM, smemPerVM)
	fmt.Printf("%-4s %-10s %-10s %-12s %-10s %s\n",
		"VM", "workload", "runtime", "fast-hit %", "promoted", "mgmt CPU")

	_, wall := c.Totals()
	var mgmt sim.Duration
	for i, x := range c.Executors {
		vm := c.Machine.VMs[i]
		st := vm.Stats()
		fastPct := 100 * float64(st.FastHits) / float64(st.FastHits+st.SlowHits)
		fmt.Printf("%-4d %-10s %-10v %-12.1f %-10d %v\n",
			i, x.WL.Name(), x.Runtime(), fastPct, policies[i].Stats().Promoted,
			vm.Ledger.Sum())
		mgmt += vm.Ledger.Sum()
	}
	fmt.Printf("\naggregate management overhead: %.3f cores over %v wall "+
		"(the paper's Figure 2 keeps this under 0.2 at full scale)\n",
		float64(mgmt)/float64(wall), wall)
}
