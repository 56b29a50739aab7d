package experiments

import (
	"fmt"

	"demeter/internal/hypervisor"
	"demeter/internal/stats"
	"demeter/internal/workload"
)

// AblationPML reproduces §7.3's argument: Page Modification Logging is
// unsuitable for TMM access tracking. Three VMs run GUPS under vTMM
// (PML + EPT A bits, hypervisor), H-TPP (EPT A bits, hypervisor) and
// Demeter (guest PEBS); the report shows runtimes, full-flush volume and
// the fixed-frequency VM exits only PML incurs.
func AblationPML(s Scale) string {
	designs := []string{"vtmm", "tpp-h", "demeter"}
	results := runIndexed(len(designs), func(i int) ClusterResult {
		return s.RunCluster(designs[i], 3, func(vmID int) workload.Workload {
			return workload.Must(workload.NewGUPS(s.GUPSFootprint, s.GUPSOps, uint64(vmID)+1))
		}, clusterOptions{})
	})
	tb := stats.NewTable("Ablation: write-tracking source (3 VMs, GUPS)",
		"Design", "Avg runtime (s)", "Full flushes", "Host CPU (s)")
	for i, d := range designs {
		res := results[i]
		tb.AddRow(d, fmt.Sprintf("%.3f", res.AvgRuntime()),
			res.TLB.FullFlushes, fmt.Sprintf("%.3f", res.HostCPU.Sum().Seconds()))
	}
	return tb.String() +
		"\nExpected: both hypervisor designs trail Demeter badly; vTMM adds\n" +
		"PML's per-512-writes VM exits on top of the invept storm.\n"
}

// AblationDAMON compares the DAMON-based tiering scheme §6.3 discusses
// with Demeter on the same workload: DAMON's A-bit probe sampling and
// region adaptation track far more slowly than gVA PEBS feeding the range
// tree.
func AblationDAMON(s Scale) string {
	designs := []string{"damon", "demeter"}
	results := runIndexed(len(designs), func(i int) ClusterResult {
		return s.RunCluster(designs[i], 3, func(vmID int) workload.Workload {
			return workload.Must(workload.NewGUPS(s.GUPSFootprint, s.GUPSOps, uint64(vmID)+1))
		}, clusterOptions{})
	})
	tb := stats.NewTable("Ablation: guest-side classification scheme (3 VMs, GUPS)",
		"Design", "Avg runtime (s)", "Single flushes")
	for i, d := range designs {
		tb.AddRow(d, fmt.Sprintf("%.3f", results[i].AvgRuntime()), results[i].TLB.SingleFlushes)
	}
	return tb.String() +
		"\nExpected: DAMON improves on static placement but cannot match\n" +
		"Demeter — PTE.A probe sampling is flush-heavy and slow to localize\n" +
		"hotspots, the §6.3 limitations.\n"
}

// AblationGranularity sweeps the minimum split size. The paper fixes 2 MiB
// to preserve hugepage TLB coverage and bound management overhead
// (§3.4.1), while noting administrators can trade it for finer placement.
// The sweep shows the cost side of that dial: finer granularity multiplies
// ranges and relocation work for little gain on hotspot workloads whose
// hot runs are much larger than a hugepage.
func AblationGranularity(s Scale) string {
	var grans []uint64
	for _, g := range []uint64{s.Granularity * 4, s.Granularity, s.Granularity / 4, s.Granularity / 16} {
		if g != 0 {
			grans = append(grans, g)
		}
	}
	results := runIndexed(len(grans), func(i int) ClusterResult {
		sg := s
		sg.Granularity = grans[i]
		return sg.RunCluster("demeter", 3, func(vmID int) workload.Workload {
			return workload.Must(workload.NewGUPS(s.GUPSFootprint, s.GUPSOps, uint64(vmID)+1))
		}, clusterOptions{})
	})
	tb := stats.NewTable("Ablation: split granularity (3 VMs, GUPS)",
		"Granularity (pages)", "Avg runtime (s)", "Migrate CPU (s)", "Classify CPU (s)")
	for i, g := range grans {
		res := results[i]
		tb.AddRow(g, fmt.Sprintf("%.3f", res.AvgRuntime()),
			fmt.Sprintf("%.4f", res.GuestCPU.Total(hypervisor.CompMigrate).Seconds()),
			fmt.Sprintf("%.4f", res.GuestCPU.Total(hypervisor.CompClassify).Seconds()))
	}
	return tb.String() +
		"\nExpected: a broad plateau — runtime is insensitive across a wide\n" +
		"range while finer granularities only add classification/relocation\n" +
		"bookkeeping, which is why the paper settles on 2 MiB.\n"
}
