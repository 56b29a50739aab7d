// Package experiments contains the reproduction harness: one runner per
// table and figure of the paper's evaluation (§2.3, §5), plus the shared
// cluster plumbing. Every runner is deterministic given its Scale and
// returns a text report with the same rows or series the paper presents.
//
// # Scaling
//
// The paper's testbed is a 36-core dual-socket server with 128 GiB DRAM
// and 512 GiB PMEM running nine 16 GiB VMs for hours. The harness
// compresses that along three axes, preserving the ratios that drive
// every result:
//
//   - Sizes (÷SizeDiv): VM memory, workload footprints and the FMEM:SMEM
//     1:5 split shrink together, so placement pressure is unchanged.
//   - Time (÷TimeDiv): every management cadence (classification epochs,
//     scan periods, balloon/QoS periods) shrinks by one factor, so the
//     ratio of management work to workload progress is unchanged.
//   - Sampling (PEBS periods scaled so samples-per-epoch stays in the
//     paper's regime).
//
// EXPERIMENTS.md records paper-vs-measured shape for every entry.
package experiments

import (
	"fmt"
	"sort"

	"demeter/internal/core"
	"demeter/internal/damon"
	"demeter/internal/sim"
	"demeter/internal/stats"
	"demeter/internal/tlb"
	"demeter/internal/tmm"
	"demeter/internal/workload"
)

// Policy is the common TMM lifecycle, satisfied by core.Demeter and
// every tmm design.
type Policy = tmm.Policy

// pollPeriod is the sample-collection thread cadence of Memtis and of
// the polling-drain ablation. Both scales run it at 100 µs.
const pollPeriod = 100 * sim.Microsecond

// Scale compresses the paper's configuration.
type Scale struct {
	Name string

	// Per-VM provision in frames (1:5 FMEM:SMEM).
	VMFMEM, VMSMEM uint64
	// GUPSFootprint is the per-VM GUPS table in pages when one VM holds
	// the whole (scaled) 14 GiB share.
	GUPSFootprint uint64
	// AppFootprint sizes the §5.3 application workloads.
	AppFootprint uint64
	// GUPSOps / AppOps are per-VM main-phase operation counts.
	GUPSOps, AppOps uint64
	// VMs is the concurrent VM count for multi-VM experiments.
	VMs int

	// EpochPeriod is Demeter's t_split after time compression.
	EpochPeriod sim.Duration
	// ScanPeriod is the A-bit designs' cadence after compression.
	ScanPeriod sim.Duration
	// SamplePeriod is Demeter's PEBS period at this scale.
	SamplePeriod uint64
	// MemtisSamplePeriod is Memtis' (denser) period.
	MemtisSamplePeriod uint64
	// Granularity is the range-tree split granularity in pages.
	Granularity uint64
	// MigrationBatch caps pages migrated per classification round for
	// every design. The paper's 4096-page batches per 500ms epoch are a
	// modest ~32 MB/s of migration bandwidth; compressing time without
	// compressing the batch would let classifiers chase streaming sweeps
	// (LibLinear's feature scan) with absurd migration rates.
	MigrationBatch int
	// ScanBatch bounds pages visited per scan round for the A-bit
	// designs (incremental LRU walking), calibrated so a full-footprint
	// VM costs ~0.5 cores of scanning like the paper's TPP.
	ScanBatch int
	// ScanPTECost is the per-page A-bit scan + LRU bookkeeping cost
	// (~135ns on the paper's testbed, back-computed from TPP's 0.5
	// cores/VM over 3.7M pages at 1s cadence). Sizes and time compress
	// by the same divisor, so no compensation factor is needed.
	ScanPTECost sim.Duration
	// Horizon bounds each run.
	Horizon sim.Duration

	// Events gives every leaf run a journal ring, so Report.Events and
	// RungResult.Events hold its events. Off, a journal only counts:
	// metrics merging is cheap, a ring buffer per leaf is not.
	Events bool

	// obsAcc collects the leaf runs' snapshots and journals for the
	// running experiment's Report. RunExperiments installs a fresh one
	// per experiment; the pointer survives Scale's value copies
	// (splitScale and friends), so every leaf contributes to its
	// experiment's accumulator. Nil (direct API use, tests) disables
	// accumulation.
	obsAcc *obsAccum
}

// Quick is the default harness scale: sizes and time both ÷128, which
// preserves the paper's per-page access rates relative to management
// cadences (the quantity A-bit and sample-based classification both live
// on). Every experiment completes in seconds to a couple of minutes.
func Quick() Scale {
	return Scale{
		Name:          "quick(size/128,time/128)",
		VMFMEM:        5500,  // 2.67 GiB / 128
		VMSMEM:        27500, // 13.3 GiB / 128
		GUPSFootprint: 28672, // 14 GiB / 128
		AppFootprint:  28000, // ~14 GiB / 128
		GUPSOps:       6_000_000,
		AppOps:        2_500_000,
		VMs:           9,
		EpochPeriod:   3900 * sim.Microsecond, // 500ms / 128
		ScanPeriod:    7800 * sim.Microsecond, // 1s / 128
		SamplePeriod:  31,                     // ~4093/128, kept prime: composite periods alias with
		// regular access interleavings and starve whole regions of samples
		MemtisSamplePeriod: 17, // ~2039/128, prime
		Granularity:        128,
		ScanPTECost:        135,
		ScanBatch:          28000,
		MigrationBatch:     256,
		Horizon:            300 * sim.Second,
	}
}

// Tiny is for unit tests: everything minimal but mechanically identical.
func Tiny() Scale {
	s := Quick()
	s.Name = "tiny(size/512,time/512)"
	s.VMFMEM, s.VMSMEM = 1400, 7000
	s.GUPSFootprint, s.AppFootprint = 7168, 7000
	s.GUPSOps, s.AppOps = 150_000, 150_000
	s.VMs = 3
	s.EpochPeriod = 1 * sim.Millisecond // 500ms / 512
	s.ScanPeriod = 2 * sim.Millisecond  // 1s / 512
	s.SamplePeriod = 7
	s.MemtisSamplePeriod = 5
	s.Granularity = 32
	s.ScanPTECost = 135
	s.ScanBatch = 7200
	s.MigrationBatch = 128
	return s
}

// ScaleByName resolves a scale by its CLI name. Frozen explorer corpus
// cases record the name, so replays resolve the scale the same way the
// command line does.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick(), nil
	case "tiny":
		return Tiny(), nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (want quick or tiny)", name)
}

// Designs evaluated across the figures.
var GuestDesigns = []string{"demeter", "tpp", "memtis", "nomad"}

// NewPolicy builds a fresh policy instance for one VM.
func (s Scale) NewPolicy(design string) Policy {
	switch design {
	case "static":
		return tmm.NewStatic()
	case "demeter":
		return core.New(s.demeterConfig())
	case "tpp":
		return tmm.NewTPP(s.scanConfig())
	case "tpp-h":
		return tmm.NewTPPH(s.scanConfig())
	case "memtis":
		cfg := tmm.DefaultMemtisConfig()
		cfg.SamplePeriod = s.MemtisSamplePeriod
		cfg.PollPeriod = pollPeriod
		cfg.ClassifyPeriod = s.ScanPeriod
		cfg.HotThreshold = 2
		cfg.MigrationBatch = s.MigrationBatch
		return tmm.NewMemtis(cfg)
	case "nomad":
		return tmm.NewNomad(s.scanConfig())
	case "vtmm":
		return tmm.NewVTMM(s.scanConfig())
	case "damon":
		cfg := damon.DefaultConfig()
		cfg.SamplingInterval = 100 * sim.Microsecond
		cfg.AggregationInterval = s.EpochPeriod
		cfg.MaxRegions = 200
		pol, err := damon.NewPolicy(cfg, 2, s.MigrationBatch)
		if err != nil {
			panic(fmt.Sprintf("experiments: damon config: %v", err))
		}
		return pol
	default:
		panic(fmt.Sprintf("experiments: unknown design %q", design))
	}
}

// scanConfig is the scanning designs' cadence, scan bound and migration
// batch at this scale. The health monitor's host-side fallback runs at
// it too, so failover follows the run's compressed periods rather than
// vTMM's full-scale defaults.
func (s Scale) scanConfig() tmm.ScanConfig {
	return tmm.ScanConfig{ScanPeriod: s.ScanPeriod, ScanBatchPages: s.ScanBatch, MigrationBatch: s.MigrationBatch}
}

// demeterConfig is Demeter's default config with this scale's epoch,
// sample period, range granularity and migration batch: the baseline
// the guest-design runs, the sensitivity sweeps and the ablations share.
func (s Scale) demeterConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.EpochPeriod = s.EpochPeriod
	cfg.SamplePeriod = s.SamplePeriod
	cfg.Params.GranularityPages = s.Granularity
	cfg.MigrationBatch = s.MigrationBatch
	return cfg
}

// NewApp builds one of the §5.3 application workloads at this scale.
func (s Scale) NewApp(app string, seed uint64) workload.Workload {
	f, ops := s.AppFootprint, s.AppOps
	switch app {
	case "gups":
		return workload.Must(workload.NewGUPS(s.GUPSFootprint, s.GUPSOps, seed))
	case "btree":
		return workload.Must(workload.NewBTree(f*63/64, ops/4, seed))
	case "silo":
		return workload.Must(workload.NewSilo(f, ops/8, seed))
	case "bwaves":
		return workload.Must(workload.NewBwaves(f/3, ops, seed))
	case "xsbench":
		return workload.Must(workload.NewXSBench(f*20/21, ops/5, seed))
	case "graph500":
		return workload.Must(workload.NewGraph500(f/5, ops/4, seed))
	case "pagerank":
		return workload.Must(workload.NewPageRank(f, ops/3, seed))
	case "liblinear":
		return workload.Must(workload.NewLibLinear(f*50/51, ops, seed))
	default:
		panic(fmt.Sprintf("experiments: unknown app %q", app))
	}
}

// Apps is the §5.3 workload list in the paper's presentation order.
var Apps = []string{"btree", "silo", "bwaves", "xsbench", "graph500", "pagerank", "liblinear"}

// ClusterResult aggregates one multi-VM run.
type ClusterResult struct {
	Design   string
	Runtimes []sim.Duration
	Wall     sim.Duration // latest finish
	GuestCPU *sim.Ledger  // merged per-component guest management time
	HostCPU  *sim.Ledger
	TLB      tlb.Stats
	OpsTotal uint64
	Series   *stats.Series    // aggregate throughput when sampled
	TxnHist  *stats.Histogram // merged transaction latencies (Silo)
}

// AvgRuntime returns the mean VM runtime in seconds.
func (r ClusterResult) AvgRuntime() float64 {
	var s float64
	for _, rt := range r.Runtimes {
		s += rt.Seconds()
	}
	return s / float64(len(r.Runtimes))
}

// Throughput returns aggregate accesses per simulated second.
func (r ClusterResult) Throughput() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.OpsTotal) / r.Wall.Seconds()
}

// CoresUsed returns management CPU (guest+host) as average cores over the
// run — Figure 2's metric.
func (r ClusterResult) CoresUsed() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return (float64(r.GuestCPU.Sum()) + float64(r.HostCPU.Sum())) / float64(r.Wall)
}

// clusterOptions tweaks RunCluster.
type clusterOptions struct {
	tier        string       // slow medium: "pmem" (Figure 10) or "cxl" (Figure 11)
	sampleEvery sim.Duration // aggregate throughput sampling (0 = off)
	txnLatency  bool
}

// RunCluster runs nVMs concurrent VMs, each with its own policy instance
// of the given design and its own workload (built by mkWL per VM index).
func (s Scale) RunCluster(design string, nVMs int, mkWL func(vmID int) workload.Workload, opt clusterOptions) ClusterResult {
	c := s.newCluster(opt.tier, s.VMFMEM*uint64(nVMs), s.VMSMEM*uint64(nVMs))
	res := ClusterResult{Design: design, GuestCPU: sim.NewLedger(), HostCPU: sim.NewLedger()}
	for i := 0; i < nVMs; i++ {
		guestFMEM, guestSMEM := s.VMFMEM, s.VMSMEM
		if design == "tpp-h" {
			// Hypervisor-managed guests are tier-unaware: one big node
			// whose backing the host shuffles.
			guestFMEM, guestSMEM = s.VMFMEM+s.VMSMEM, 1
		}
		x := must(c.Attach(must(c.NewVM(4, guestFMEM, guestSMEM)), mkWL(i), s.NewPolicy(design)))
		x.PublishObs(c.Obs, fmt.Sprintf("%d", i))
		if opt.txnLatency {
			x.TxnHist = stats.NewHistogram()
			c.Obs.Reg.AttachHistogram("txn_latency_ns", x.TxnHist, "vm", fmt.Sprintf("%d", i))
		}
	}

	var sampler *sim.Ticker
	if opt.sampleEvery > 0 {
		res.Series = &stats.Series{Name: design}
		var lastOps uint64
		var lastT sim.Time
		sampler = c.Eng.StartTicker(opt.sampleEvery, func(now sim.Time) {
			ops, _ := c.Totals()
			dt := now - lastT
			if dt > 0 {
				res.Series.Append(now.Seconds(), float64(ops-lastOps)/dt.Seconds())
			}
			lastOps, lastT = ops, now
		})
	}

	ok := c.Run(s.Horizon)
	if sampler != nil {
		sampler.Stop()
	}
	c.Detach()
	if !ok {
		panic(fmt.Sprintf("experiments: %s cluster did not finish within horizon %v", design, s.Horizon))
	}

	res.OpsTotal, res.Wall = c.Totals()
	res.TxnHist = stats.NewHistogram()
	for i, x := range c.Executors {
		res.Runtimes = append(res.Runtimes, x.Runtime())
		vm := c.Machine.VMs[i]
		res.GuestCPU.Merge(vm.Ledger)
		st := vm.TLB.Stats()
		res.TLB.SingleFlushes += st.SingleFlushes
		res.TLB.FullFlushes += st.FullFlushes
		res.TLB.Lookups += st.Lookups
		res.TLB.Hits += st.Hits
		res.TLB.Misses += st.Misses
		if x.TxnHist != nil {
			res.TxnHist.Merge(x.TxnHist)
		}
	}
	res.HostCPU.Merge(c.Machine.HostLedger)
	s.finish(c, design)
	return res
}

// gupsSplit builds per-VM GUPS workloads dividing the full (s.VMs-sized)
// footprint and transaction budget across nVMs while preserving the
// distribution — the §2.3.2 scalability methodology. Callers must size
// guest nodes to hold the per-VM share (see splitScale).
func (s Scale) gupsSplit(nVMs int) func(int) workload.Workload {
	fp := s.GUPSFootprint * uint64(s.VMs) / uint64(nVMs)
	ops := s.GUPSOps * uint64(s.VMs) / uint64(nVMs)
	return func(vmID int) workload.Workload {
		return workload.Must(workload.NewGUPS(fp, ops, uint64(vmID)+1))
	}
}

// splitScale resizes per-VM provisions so nVMs guests jointly hold the
// same total memory as s.VMs would.
func (s Scale) splitScale(nVMs int) Scale {
	out := s
	out.VMFMEM = s.VMFMEM * uint64(s.VMs) / uint64(nVMs)
	out.VMSMEM = s.VMSMEM * uint64(s.VMs) / uint64(nVMs)
	return out
}

// geoMeanRuntimes computes the geometric mean of average runtimes across a
// result set keyed by design.
func geoMeanRuntimes(byDesign map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(byDesign))
	for _, d := range sortedKeys(byDesign) {
		out[d] = stats.GeoMean(byDesign[d])
	}
	return out
}

// sortedKeys returns map keys sorted for stable report output.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
