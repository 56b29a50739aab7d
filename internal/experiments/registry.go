package experiments

import "strings"

// Experiment is one reproducible table or figure.
type Experiment struct {
	// ID matches the paper ("table1", "figure10", ...).
	ID string
	// Title summarizes what the paper shows.
	Title string
	// Run executes at the given scale and returns the text report.
	Run func(s Scale) string
}

// catalog lists every experiment in presentation order: tables,
// ablations, degraded mode, then figures in numeric order.
var catalog = []Experiment{
	{ID: "table1", Title: "TLB flush comparison between hypervisor-based and guest-based TMM under GUPS", Run: Table1},
	{ID: "table2", Title: "Memory access latency and bandwidth matrix (Memory Latency Checker analog)", Run: Table2},
	{ID: "ablation-damon", Title: "Ablation: DAMON-based guest tiering vs Demeter's range classification", Run: AblationDAMON},
	{ID: "ablation-draining", Title: "Ablation: context-switch draining vs dedicated polling thread", Run: AblationDraining},
	{ID: "ablation-event", Title: "Ablation: load-latency event vs media-specific cache-miss event", Run: AblationEvent},
	{ID: "ablation-granularity", Title: "Ablation: range split granularity (the §3.4.1 TLB-coverage vs precision tradeoff)", Run: AblationGranularity},
	{ID: "ablation-pml", Title: "Ablation: PML-based hypervisor tracking (vTMM) vs A-bit (H-TPP) vs guest PEBS (Demeter)", Run: AblationPML},
	{ID: "ablation-relocation", Title: "Ablation: balanced swapping vs sequential demote-then-promote", Run: AblationRelocation},
	{ID: "ablation-translation", Title: "Ablation: direct gVA samples vs per-sample software translation", Run: AblationTranslation},
	{ID: "degraded", Title: "Degraded-mode failover vs frozen delegation under agent crashes", Run: Degraded},
	{ID: "figure2", Title: "TMM CPU overhead (cores) vs concurrent VM count: TPP, Memtis, Demeter", Run: Figure2},
	{ID: "figure4", Title: "Guest physical vs virtual address space heat maps (LibLinear)", Run: Figure4},
	{ID: "figure6", Title: "GUPS throughput under different tiered memory provisioning techniques", Run: Figure6},
	{ID: "figure7", Title: "Breakdown of TMM overhead (track/classify/migrate CPU seconds) across guest designs", Run: Figure7},
	{ID: "figure8", Title: "Instantaneous GUPS throughput over time across guest designs", Run: Figure8},
	{ID: "figure9", Title: "Sensitivity of GUPS runtime to PEBS and range-split parameters", Run: Figure9},
	{ID: "figure10", Title: "Average execution times across real-world workloads (DRAM + PMEM), incl. §5.4 TPP-H", Run: func(s Scale) string { return realWorkloads(s, "pmem", true) }},
	{ID: "figure11", Title: "Average execution times across real-world workloads (DRAM + emulated CXL.mem)", Run: func(s Scale) string { return realWorkloads(s, "cxl", false) }},
	{ID: "figure12", Title: "Silo YCSB latency percentiles across designs (5 concurrent VMs)", Run: Figure12},
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	id = strings.ToLower(id)
	for _, e := range catalog {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// All returns a copy of every experiment in presentation order.
func All() []Experiment { return append([]Experiment(nil), catalog...) }
