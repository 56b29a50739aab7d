package experiments

import (
	"fmt"

	"demeter/internal/mem"
	"demeter/internal/sim"
	"demeter/internal/stats"
)

// measureTierLatency runs an MLC-style dependent-load loop against pages
// pinned to one host node and returns the average measured access
// latency. It exercises the full simulated hardware path (TLB, walks,
// tier latency) rather than echoing configuration.
func (s Scale) measureTierLatency(tier string, node int) sim.Duration {
	c := s.newCluster(tier, 4096, 4096)
	vm := must(c.NewVM(1, 4096, 4096))
	const pages = 512
	start := vm.Proc.Mmap(pages * mem.PageSize)
	var burned []mem.Frame
	if node == 1 {
		// Exhaust the guest fast node so first touches land on SMEM.
		for {
			f, ok := vm.Kernel.AllocPageOn(0)
			if !ok {
				break
			}
			burned = append(burned, f)
		}
	}
	// Touch (cold) then measure warm latencies like MLC's idle-latency
	// pointer chase.
	for i := uint64(0); i < pages; i++ {
		vm.Access(start+i*mem.PageSize, false)
	}
	var total sim.Duration
	const rounds = 8
	for r := 0; r < rounds; r++ {
		for i := uint64(0); i < pages; i++ {
			total += vm.Access(start+i*mem.PageSize, false)
		}
	}
	for _, f := range burned {
		vm.Kernel.FreePage(f)
	}
	s.finish(c, fmt.Sprintf("mlc-%s-node%d", tier, node))
	return total / (pages * rounds)
}

// Table2 reproduces the platform characterization: idle latency per
// medium (measured through the simulator) and the configured stream
// bandwidths, alongside the paper's measured values.
func Table2(s Scale) string {
	probes := []struct {
		tier string
		node int
	}{{"pmem", 0}, {"cxl", 1}, {"pmem", 1}}
	lats := runIndexed(len(probes), func(i int) sim.Duration {
		return s.measureTierLatency(probes[i].tier, probes[i].node)
	})

	tb := stats.NewTable("Table 2: memory access latency and bandwidth matrix",
		"Access to", "Idle (ns)", "Paper (ns)", "Loaded (ns, measured)", "Bandwidth (MB/s)", "Paper (MB/s)")
	tb.AddRow("L2", int64(mem.SpecL2.LoadLatency), 53.6, "-", "-", "-")
	tb.AddRow("L-DRAM", int64(mem.SpecLocalDRAM.LoadLatency), 68.7, int64(lats[0]),
		fmt.Sprintf("%.1f", mem.SpecLocalDRAM.ReadBWMBps), 88156.5)
	tb.AddRow("R-DRAM (CXL emu)", int64(mem.SpecRemoteDRAM.LoadLatency), 121.9, int64(lats[1]),
		fmt.Sprintf("%.1f", mem.SpecRemoteDRAM.ReadBWMBps), 53533.8)
	tb.AddRow("L-PMEM", int64(mem.SpecPMEM.LoadLatency), 176.6, int64(lats[2]),
		fmt.Sprintf("%.1f", mem.SpecPMEM.ReadBWMBps), 21414.5)

	return tb.String() +
		"\nIdle latencies seed the cost model from the paper's MLC matrix; the\n" +
		"measured column runs a warm dependent-load loop through the simulated\n" +
		"hardware path and reports effective (loaded) latency per tier.\n"
}
