package experiments

import (
	"fmt"

	"demeter/internal/hypervisor"
	"demeter/internal/stats"
	"demeter/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "figure7",
		Title: "Breakdown of TMM overhead (track/classify/migrate CPU seconds) across guest designs",
		Run:   Figure7,
	})
	register(Experiment{
		ID:    "figure8",
		Title: "Instantaneous GUPS throughput over time across guest designs",
		Run:   Figure8,
	})
}

// runGUPSNine runs the §5.2.2 setting: nine VMs, each with its own full
// GUPS table, under one design.
func runGUPSNine(s Scale, design string, sampled bool) ClusterResult {
	opt := clusterOptions{}
	if sampled {
		opt.sampleEvery = s.EpochPeriod
	}
	return s.RunCluster(design, s.VMs, func(vmID int) workload.Workload {
		return workload.Must(workload.NewGUPS(s.GUPSFootprint, s.GUPSOps, uint64(vmID)+1))
	}, opt)
}

// Figure7 reproduces the overhead breakdown: per-design CPU seconds spent
// in access tracking, hotness classification and migration. Paper shape:
// Demeter's context-switch draining is ~16× cheaper than Memtis' threads;
// TPP/Nomad pay heavy scan costs; Demeter's migration is ~28% of TPP's
// while moving more hot data.
func Figure7(s Scale) string {
	results := runIndexed(len(GuestDesigns), func(i int) ClusterResult {
		return runGUPSNine(s, GuestDesigns[i], false)
	})

	tb := stats.NewTable("Figure 7: TMM overhead breakdown (CPU seconds, summed over 9 VMs)",
		"Design", "Track", "Classify", "Migrate", "Total", "Runtime (s)")
	type row struct {
		track, migrate float64
	}
	rows := map[string]row{}
	for i, d := range GuestDesigns {
		res := results[i]
		track := res.GuestCPU.Total(hypervisor.CompTrack).Seconds()
		classify := res.GuestCPU.Total(hypervisor.CompClassify).Seconds()
		migrate := res.GuestCPU.Total(hypervisor.CompMigrate).Seconds()
		rows[d] = row{track: track, migrate: migrate}
		tb.AddRow(d,
			fmt.Sprintf("%.4f", track),
			fmt.Sprintf("%.4f", classify),
			fmt.Sprintf("%.4f", migrate),
			fmt.Sprintf("%.4f", track+classify+migrate),
			fmt.Sprintf("%.3f", res.AvgRuntime()))
	}
	out := tb.String()
	if rows["demeter"].track > 0 {
		out += fmt.Sprintf("\nTracking ratio Memtis/Demeter: %.1fx (paper: ~16x)\n",
			rows["memtis"].track/rows["demeter"].track)
	}
	if rows["tpp"].migrate > 0 {
		out += fmt.Sprintf("Migration ratio Demeter/TPP: %.2f (paper: ~0.28)\n",
			rows["demeter"].migrate/rows["tpp"].migrate)
	}
	return out
}

// Figure8 reproduces the instantaneous-throughput time series: Demeter
// should ramp fastest (quick hot-range identification), peak highest and
// finish earliest.
func Figure8(s Scale) string {
	out := "Figure 8: instantaneous GUPS throughput (ops/s), EWMA-smoothed\n\n"
	type summary struct {
		finish   float64
		peak     float64
		rampTime float64 // time to reach 80% of peak
	}
	results := runIndexed(len(GuestDesigns), func(i int) ClusterResult {
		return runGUPSNine(s, GuestDesigns[i], true)
	})
	summaries := map[string]summary{}
	for i, d := range GuestDesigns {
		res := results[i]
		series := res.Series.Smoothed(0.3)
		var peak float64
		for _, v := range series.Values {
			if v > peak {
				peak = v
			}
		}
		ramp := 0.0
		for i, v := range series.Values {
			if v >= 0.8*peak {
				ramp = series.Times[i]
				break
			}
		}
		summaries[d] = summary{finish: res.Wall.Seconds(), peak: peak, rampTime: ramp}
		out += fmt.Sprintf("## %s\n", d)
		for i := range series.Times {
			out += fmt.Sprintf("t=%.3fs thpt=%.3g\n", series.Times[i], series.Values[i])
		}
		out += "\n"
	}
	tb := stats.NewTable("Summary", "Design", "Peak (ops/s)", "Ramp to 80% (s)", "Finish (s)")
	for _, d := range GuestDesigns {
		sm := summaries[d]
		tb.AddRow(d, fmt.Sprintf("%.3g", sm.peak), fmt.Sprintf("%.3f", sm.rampTime), fmt.Sprintf("%.3f", sm.finish))
	}
	out += tb.String()
	out += "\nPaper shape: Demeter has the steepest early ramp, the highest peak\n" +
		"and the earliest completion; the mid-run dip corresponds to migration.\n"
	return out
}
