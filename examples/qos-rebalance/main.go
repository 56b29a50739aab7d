// qos-rebalance: the double balloon's QoS framework (§3.3) end to end.
// Three VMs share a fixed FMEM budget; each publishes telemetry on its
// statistics virtqueue and a host-side rebalancer shifts fast-tier
// provision toward slow-tier pressure, weighted by service tier.
//
//	go run ./examples/qos-rebalance
package main

import (
	"fmt"

	"demeter/internal/balloon"
	"demeter/internal/experiments"
	"demeter/internal/sim"
	"demeter/internal/tmm"
	"demeter/internal/workload"
)

const (
	vms       = 3
	vmTotal   = 12288 // each guest node's capacity: 100% of VM memory
	smemPerVM = 8192
	budget    = 6144 // host FMEM frames to distribute
)

func main() {
	c, err := experiments.NewCluster("pmem", budget, vms*smemPerVM)
	if err != nil {
		panic(err)
	}
	var doubles []*balloon.Double
	for i := 0; i < vms; i++ {
		vm, err := c.NewVM(4, vmTotal, vmTotal)
		if err != nil {
			panic(err)
		}
		d := balloon.NewDouble(c.Eng, vm)
		// Boot-time provision: equal FMEM shares.
		d.SetProvision(budget/vms, smemPerVM, nil)
		doubles = append(doubles, d)
	}
	c.Eng.RunUntilIdle() // settle boot provisioning

	for _, d := range doubles {
		d.StartStats(2 * sim.Millisecond)
	}
	// VM 0 is a premium tenant (weight 2); the others standard.
	reb := balloon.NewRebalancer(c.Eng, doubles, []float64{2, 1, 1})
	reb.Budget = budget
	reb.MinPerVM = 512
	reb.SMEMPerVM = smemPerVM
	reb.Start(8 * sim.Millisecond)

	// VM 0 (premium) and VM 1 are memory-hungry; VM 2 is nearly idle.
	// No tiering design runs: the balloons alone move the fast tier.
	sizes := []uint64{10000, 10000, 1024}
	for i, vm := range c.Machine.VMs {
		wl := workload.Must(workload.NewGUPS(sizes[i], 250_000, uint64(i)+1))
		if _, err := c.Attach(vm, wl, tmm.NewStatic()); err != nil {
			panic(err)
		}
	}
	if !c.Run(300 * sim.Second) {
		panic("did not finish")
	}
	reb.Stop()
	for _, d := range doubles {
		d.StopStats()
	}

	fmt.Println("QoS rebalancing over the Demeter double balloon")
	fmt.Printf("host FMEM budget: %d frames across %d VMs (min %d each)\n\n",
		budget, vms, reb.MinPerVM)
	fmt.Printf("%-4s %-8s %-10s %-14s %s\n",
		"VM", "tier", "footprint", "FMEM share", "runtime")
	shares := reb.Shares() // as applied by the last mid-run rebalance
	tiers := []string{"premium", "standard", "standard"}
	for i := range doubles {
		fmt.Printf("%-4d %-8s %-10d %-14d %v\n",
			i, tiers[i], sizes[i], shares[i], c.Executors[i].Runtime())
	}
	fmt.Printf("\n%d rebalance rounds; pressured VMs hold the large shares (the\n"+
		"premium one weighted 2x), the idle VM shrinks toward the floor — policy\n"+
		"running entirely on balloon telemetry, no guest cooperation needed.\n", reb.Rebalances)
}
