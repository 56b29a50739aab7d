package tmm

import (
	"demeter/internal/hypervisor"
	"demeter/internal/sim"
)

// TPPConfig tunes the guest-resident TPP model.
type TPPConfig struct {
	// ScanPeriod is the A-bit scan cadence.
	ScanPeriod sim.Duration
	// MaxScore caps the saturating counter; a slow-tier page is armed
	// for promotion once its score saturates.
	MaxScore uint8
	// MigrationBatch caps promotions per round.
	MigrationBatch int
	// ScanBatchPages bounds the PTEs visited per round; the scan resumes
	// from a cursor next round, like kswapd's incremental LRU walks.
	// Zero means unbounded.
	ScanBatchPages int
	// FreeTargetFrac is the FMEM free watermark the demotion side
	// (kswapd) maintains so promotions always find headroom.
	FreeTargetFrac float64
}

// DefaultTPPConfig mirrors TPP's Linux incarnation at full time scale.
func DefaultTPPConfig() TPPConfig {
	return TPPConfig{
		ScanPeriod:     sim.Second,
		MaxScore:       4,
		MigrationBatch: 4096,
		FreeTargetFrac: 0.04,
	}
}

// TPP is Transparent Page Placement inside the guest (G-TPP). Tracking
// walks the guest page table in bounded rounds, clearing A bits; because
// the guest knows each PTE's gVA, every cleared bit costs one
// single-address invalidation rather than a full flush (§2.3.1).
// Promotion is access-triggered: qualifying slow-tier pages are
// hint-marked (PROT_NONE style) and promoted from the resulting NUMA hint
// fault, so hotter pages naturally win the race for free fast-tier frames.
// Demotion is kswapd-style watermark maintenance.
type TPP struct {
	Cfg TPPConfig
	guestScan
}

// NewTPP returns a detached guest TPP.
func NewTPP(cfg TPPConfig) *TPP { return &TPP{Cfg: cfg} }

// Name implements Policy.
func (p *TPP) Name() string { return "tpp" }

// Attach implements Policy.
func (p *TPP) Attach(eng *sim.Engine, vm *hypervisor.VM) {
	p.attach(eng, vm, "TPP", p.Cfg)
}
