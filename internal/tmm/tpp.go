package tmm

import (
	"demeter/internal/hypervisor"
	"demeter/internal/sim"
)

// TPP's published tunables.
const (
	// tppMaxScore caps the saturating counter; a slow-tier page is armed
	// for promotion once its score saturates.
	tppMaxScore = 4
	// tppFreeTargetFrac is the FMEM free watermark the demotion side
	// (kswapd) maintains so promotions always find headroom.
	tppFreeTargetFrac = 0.04
)

// TPP is Transparent Page Placement inside the guest (G-TPP). Tracking
// walks the guest page table in bounded rounds, clearing A bits; because
// the guest knows each PTE's gVA, every cleared bit costs one
// single-address invalidation rather than a full flush (§2.3.1).
// Promotion is access-triggered: qualifying slow-tier pages are
// hint-marked (PROT_NONE style) and promoted from the resulting NUMA hint
// fault, so hotter pages naturally win the race for free fast-tier frames.
// Demotion is kswapd-style watermark maintenance.
type TPP struct {
	Cfg ScanConfig
	guestScan
}

// NewTPP returns a detached guest TPP.
func NewTPP(cfg ScanConfig) *TPP { return &TPP{Cfg: cfg} }

// Name implements Policy.
func (p *TPP) Name() string { return "tpp" }

// Attach implements Policy.
func (p *TPP) Attach(eng *sim.Engine, vm *hypervisor.VM) {
	p.attach(eng, vm, "TPP", p.Cfg, tppMaxScore, tppFreeTargetFrac)
}
