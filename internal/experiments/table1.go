package experiments

import (
	"fmt"

	"demeter/internal/stats"
	"demeter/internal/workload"
)

// Table1 reproduces §2.3.1: a single large VM runs GUPS under H-TPP,
// G-TPP and Demeter; the report counts single and full TLB invalidations
// and the elapsed time. Paper shape: H-TPP issues the only full
// invalidations and ~4.7× G-TPP's flush volume, running ~2.5× longer;
// Demeter cuts G-TPP's flushes roughly in half and runs ~15% faster.
func Table1(s Scale) string {
	// Paper: 126 GiB footprint vs 36 GiB DRAM (126/14 = 9 GUPS shares,
	// DRAM:footprint = 2:7).
	footprint := s.GUPSFootprint * 9
	fmem := footprint * 2 / 7
	smem := footprint // room for the slow-resident remainder
	ops := s.GUPSOps * 4

	designs := []string{"tpp-h", "tpp", "demeter"}
	results := runIndexed(len(designs), func(i int) ClusterResult {
		big := s
		big.VMFMEM, big.VMSMEM = fmem, smem
		return big.RunCluster(designs[i], 1, func(int) workload.Workload {
			return workload.Must(workload.NewGUPS(footprint, ops, 1))
		}, clusterOptions{})
	})

	tb := stats.NewTable("Table 1: TLB flush comparison (GUPS, single large VM)",
		"Design", "TLB Flush (Single)", "TLB Flush (Full)", "Elapsed", "vs G-TPP")
	// The ratio column tracks the sequential presentation: rows before the
	// G-TPP row print "-" because its baseline is not yet established.
	var gtppSec float64
	for i, design := range designs {
		res := results[i]
		elapsed := res.Runtimes[0].Seconds()
		if design == "tpp" {
			gtppSec = elapsed
		}
		rel := "-"
		if gtppSec > 0 {
			rel = fmt.Sprintf("%.2fx", elapsed/gtppSec)
		}
		label := map[string]string{"tpp-h": "H-TPP", "tpp": "G-TPP", "demeter": "Demeter"}[design]
		tb.AddRow(label, res.TLB.SingleFlushes, res.TLB.FullFlushes,
			fmt.Sprintf("%.3fs", elapsed), rel)
	}
	return tb.String() +
		"\nPaper: H-TPP 62.3M single + 20.2M full, 896s; G-TPP 17.7M single, 354s;\n" +
		"Demeter 9.3M single, 300s. Shape to match: only H-TPP full-flushes, and\n" +
		"runtime H-TPP > G-TPP > Demeter.\n"
}
