package experiments

import (
	"fmt"

	"demeter/internal/stats"
	"demeter/internal/workload"
)

// Figure12 reproduces the latency-sensitivity study: five VMs run the
// Silo OLTP engine; per-transaction latency percentiles are aggregated
// across VMs. Paper shape: Demeter best at p50–p95 and ~23% lower p99
// than TPP, the next best alternative.
func Figure12(s Scale) string {
	const nVMs = 5
	qs := []float64{0.50, 0.90, 0.95, 0.99}

	results := runIndexed(len(GuestDesigns), func(i int) ClusterResult {
		return s.RunCluster(GuestDesigns[i], nVMs, func(vmID int) workload.Workload {
			return s.NewApp("silo", uint64(vmID)+1)
		}, clusterOptions{txnLatency: true})
	})

	tb := stats.NewTable("Figure 12: Silo YCSB transaction latency percentiles (µs)",
		"Design", "p50", "p90", "p95", "p99", "mean")
	p99 := map[string]float64{}
	for i, d := range GuestDesigns {
		res := results[i]
		row := []interface{}{d}
		for _, q := range qs {
			v := res.TxnHist.Quantile(q) / 1000 // ns → µs
			row = append(row, fmt.Sprintf("%.2f", v))
			if q == 0.99 {
				p99[d] = v
			}
		}
		row = append(row, fmt.Sprintf("%.2f", res.TxnHist.Mean()/1000))
		tb.AddRow(row...)
	}
	out := tb.String()
	if p99["tpp"] > 0 {
		out += fmt.Sprintf("\np99 reduction Demeter vs TPP: %.0f%% (paper: ~23%%)\n",
			(1-p99["demeter"]/p99["tpp"])*100)
	}
	out += "Paper shape: Demeter lowest across p50–p95 and cuts the p99 tail.\n"
	return out
}
