package experiments

import (
	"fmt"

	"demeter/internal/core"
	"demeter/internal/sim"
	"demeter/internal/stats"
	"demeter/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "figure9",
		Title: "Sensitivity of GUPS runtime to PEBS and range-split parameters",
		Run:   Figure9,
	})
}

// runDemeterWith runs a small GUPS cluster under a custom Demeter config
// and returns the average runtime in seconds.
func runDemeterWith(s Scale, nVMs int, cfg core.Config) float64 {
	c := s.newCluster("pmem", s.VMFMEM*uint64(nVMs), s.VMSMEM*uint64(nVMs))
	for i := 0; i < nVMs; i++ {
		c.attach(c.newVM(4, s.VMFMEM, s.VMSMEM), workload.Must(workload.NewGUPS(s.GUPSFootprint, s.GUPSOps, uint64(i)+1)), core.New(cfg))
	}
	if !c.run(s.Horizon) {
		panic("experiments: figure9 run did not finish")
	}
	c.detach()
	var sum float64
	for _, x := range c.xs {
		sum += x.Runtime().Seconds()
	}
	s.finish(c, "demeter-tuned")
	return sum / float64(nVMs)
}

// Figure9 reproduces the sensitivity study (§5.2.3): four one-dimensional
// sweeps around Demeter's defaults. Paper shape: a wide flat plateau,
// with degradation only at extremes (very large sample periods, very high
// latency thresholds, very long split periods or thresholds).
func Figure9(s Scale) string {
	nVMs := 3 // sensitivity uses a reduced cluster; ratios are per-VM
	out := "Figure 9: parameter sensitivity (average GUPS runtime, seconds)\n"
	out += fmt.Sprintf("defaults at this scale: sample period %d, latency threshold 64ns,\n", s.SamplePeriod)
	out += fmt.Sprintf("split period %v, split threshold 15 (paper defaults: 4093/64ns/500ms/15)\n\n", s.EpochPeriod)

	// The four one-dimensional sweeps are 24 independent cluster runs;
	// flatten them into one fan-out and assemble the tables afterward.
	type point struct {
		sweep int
		label interface{}
		cfg   core.Config
	}
	var points []point

	// Sweep 1: PEBS sample period (paper sweeps 64ns..16µs-scale periods).
	for _, mul := range []float64{0.25, 0.5, 1, 2, 8, 32} {
		cfg := s.demeterConfig()
		cfg.SamplePeriod = uint64(float64(s.SamplePeriod) * mul)
		if cfg.SamplePeriod == 0 {
			cfg.SamplePeriod = 1
		}
		points = append(points, point{sweep: 0, label: cfg.SamplePeriod, cfg: cfg})
	}
	// Sweep 2: load-latency threshold. Beyond the slow tier's latency no
	// access qualifies and classification starves.
	for _, thr := range []sim.Duration{30, 64, 128, 300, 950, 1200} {
		cfg := s.demeterConfig()
		cfg.LatencyThreshold = thr
		points = append(points, point{sweep: 1, label: int64(thr), cfg: cfg})
	}
	// Sweep 3: split period (t_split).
	for _, mul := range []float64{0.2, 0.5, 1, 2, 5, 10} {
		cfg := s.demeterConfig()
		cfg.EpochPeriod = sim.Duration(float64(s.EpochPeriod) * mul)
		points = append(points, point{sweep: 2, label: cfg.EpochPeriod.String(), cfg: cfg})
	}
	// Sweep 4: split threshold (τ_split).
	for _, tau := range []float64{1, 3, 7, 15, 17, 40} {
		cfg := s.demeterConfig()
		cfg.Params.SplitThreshold = tau
		points = append(points, point{sweep: 3, label: tau, cfg: cfg})
	}

	runtimes := runIndexed(len(points), func(i int) float64 {
		return runDemeterWith(s, nVMs, points[i].cfg)
	})

	titles := []struct{ title, col string }{
		{"Sample period sweep", "Period"},
		{"Latency threshold sweep", "Threshold (ns)"},
		{"Split period sweep", "t_split"},
		{"Split threshold sweep", "τ_split"},
	}
	for sw, t := range titles {
		tb := stats.NewTable(t.title, t.col, "Runtime (s)")
		for i, p := range points {
			if p.sweep == sw {
				tb.AddRow(p.label, fmt.Sprintf("%.3f", runtimes[i]))
			}
		}
		out += tb.String()
		if sw < len(titles)-1 {
			out += "\n"
		}
	}
	out += "\nPaper shape: stable plateau around the defaults; degradation only at\n" +
		"extreme values (large periods/thresholds slow or starve classification).\n"
	return out
}
