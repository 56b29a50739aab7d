package experiments

import (
	"fmt"

	"demeter/internal/stats"
	"demeter/internal/workload"
)

// realWorkloads runs the seven §5.3 applications across designs on the
// given slow tier, with s.VMs concurrent VMs per run, reporting average
// runtimes and the geometric-mean summary the paper headlines.
func realWorkloads(s Scale, tier string, includeHypervisor bool) string {
	designs := append([]string(nil), GuestDesigns...)
	if includeHypervisor {
		designs = append(designs, "tpp-h")
	}

	title := fmt.Sprintf("Figure %s: average execution time (s) per workload, %d VMs, slow tier = %s",
		map[string]string{"pmem": "10", "cxl": "11"}[tier], s.VMs, tier)
	headers := append([]string{"Workload"}, designs...)
	tb := stats.NewTable(title, headers...)

	// One leaf job per (workload, design) grid cell.
	cells := runIndexed(len(Apps)*len(designs), func(k int) float64 {
		app := Apps[k/len(designs)]
		d := designs[k%len(designs)]
		res := s.RunCluster(d, s.VMs, func(vmID int) workload.Workload {
			return s.NewApp(app, uint64(vmID)+1)
		}, clusterOptions{tier: tier})
		return res.AvgRuntime()
	})

	runtimes := map[string][]float64{} // design → per-app runtimes
	for ai, app := range Apps {
		row := []interface{}{app}
		for di, d := range designs {
			rt := cells[ai*len(designs)+di]
			runtimes[d] = append(runtimes[d], rt)
			row = append(row, fmt.Sprintf("%.3f", rt))
		}
		tb.AddRow(row...)
	}
	out := tb.String()

	geo := geoMeanRuntimes(runtimes)
	sum := stats.NewTable("\nGeometric-mean runtime (s) and speedup vs each design",
		"Design", "GeoMean", "Demeter speedup")
	for _, d := range designs {
		sum.AddRow(d, fmt.Sprintf("%.3f", geo[d]), fmt.Sprintf("%.2fx", geo[d]/geo["demeter"]))
	}
	out += sum.String()
	if tier == "pmem" {
		out += "\nPaper shape: Demeter best overall (~28% geomean over the next best\n" +
			"guest design, ~16% over TPP-H); Nomad worst on static hotspots\n" +
			"(XSBench/LibLinear); graph workloads competitive with TPP.\n"
	} else {
		out += "\nPaper shape: CXL narrows all gaps; Demeter keeps ≥10% on the\n" +
			"hotspot workloads (Silo, XSBench, LibLinear).\n"
	}
	return out
}
