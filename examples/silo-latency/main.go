// silo-latency: the latency-sensitive OLTP walkthrough (§5.6). Five VMs
// run the Silo engine under a YCSB-like mix; per-transaction latency
// percentiles are compared between guest TPP and Demeter, showing the
// tail-latency benefit of low-interference tracking plus agile
// range-based classification.
//
//	go run ./examples/silo-latency
package main

import (
	"fmt"

	"demeter/internal/core"
	"demeter/internal/engine"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/sim"
	"demeter/internal/stats"
	"demeter/internal/tmm"
	"demeter/internal/workload"
)

const (
	vms       = 5
	fmemPerVM = 1400
	smemPerVM = 7000
	tablePg   = 7000
	txns      = 25_000
)

type policy interface {
	Attach(*sim.Engine, *hypervisor.VM)
	Detach()
}

func run(design string) *stats.Histogram {
	eng := sim.NewEngine()
	host := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(vms*fmemPerVM, vms*smemPerVM))
	merged := stats.NewHistogram()
	var xs []*engine.Executor
	var pols []policy
	for i := 0; i < vms; i++ {
		vm, err := host.NewVM(hypervisor.VMConfig{
			VCPUs: 4, GuestFMEM: fmemPerVM, GuestSMEM: smemPerVM,
			FMEMBacking: 0, SMEMBacking: 1,
		})
		if err != nil {
			panic(err)
		}
		x := engine.NewExecutor(eng, vm, workload.Must(workload.NewSilo(tablePg, txns, uint64(i)+1)))
		x.TxnHist = stats.NewHistogram()
		var p policy
		switch design {
		case "demeter":
			cfg := core.DefaultConfig()
			cfg.EpochPeriod = sim.Millisecond
			cfg.SamplePeriod = 7
			cfg.Params.GranularityPages = 32
			p = core.New(cfg)
		case "tpp":
			cfg := tmm.DefaultScanConfig()
			cfg.ScanPeriod = 2 * sim.Millisecond
			cfg.ScanBatchPages = 7200
			p = tmm.NewTPP(cfg)
		}
		p.Attach(eng, vm)
		pols = append(pols, p)
		xs = append(xs, x)
	}
	if !engine.RunAll(eng, 300*sim.Second, xs...) {
		panic("did not finish")
	}
	for i, x := range xs {
		merged.Merge(x.TxnHist)
		pols[i].Detach()
	}
	return merged
}

func main() {
	fmt.Printf("Silo OLTP latency percentiles, %d concurrent VMs, %d txns each\n\n", vms, txns)
	fmt.Printf("%-10s %10s %10s %10s %10s %10s\n", "design", "p50 (µs)", "p90", "p95", "p99", "mean")
	var p99 [2]float64
	for i, design := range []string{"tpp", "demeter"} {
		h := run(design)
		p99[i] = h.Quantile(0.99) / 1000
		fmt.Printf("%-10s %10.2f %10.2f %10.2f %10.2f %10.2f\n", design,
			h.Quantile(0.50)/1000, h.Quantile(0.90)/1000, h.Quantile(0.95)/1000,
			h.Quantile(0.99)/1000, h.Mean()/1000)
	}
	fmt.Printf("\np99 reduction with Demeter: %.0f%% (the paper reports ~23%% vs TPP)\n",
		(1-p99[1]/p99[0])*100)
}
