package tmm

import (
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/pagetable"
	"demeter/internal/sim"
)

// Nomad's published tunables.
const (
	// nomadMaxScore caps the saturating counter. It is deliberately
	// deeper than TPP's: Nomad optimizes against migration thrashing, so
	// a page needs more consecutive hot scans before it is armed for
	// promotion.
	nomadMaxScore = 6
	// nomadShadowFaultCount is the number of write-protect faults each
	// transactional copy pays (protect + resolve).
	nomadShadowFaultCount = 2
	// nomadDirtyRetryFrac is the fraction of transactional copies
	// aborted by a concurrent write and retried.
	nomadDirtyRetryFrac = 0.15
	// nomadFreeTargetFrac is the small FMEM free watermark Nomad's
	// demotion keeps for hint faults.
	nomadFreeTargetFrac = 0.02
)

// Nomad models non-exclusive memory tiering via transactional page
// migration (OSDI'24). It is TPP's guest A-bit scanner with one change:
// pages are promoted by a shadow copy performed while the page stays
// mapped, which removes migration downtime but pays write-protect faults
// per copy and keeps a shadow page in the slow tier. Demotion of a clean
// shadowed page is nearly free (drop the fast copy and remap to the
// retained shadow). The design's published weakness — slow reaction to
// static hotspots because of its conservative, thrash-avoidance-first
// policy — emerges from the deeper saturating counter (max score 6 vs
// TPP's 4), which delays promotion arming.
type Nomad struct {
	Cfg ScanConfig
	guestScan
	// shadow holds 1 for a gvpn with a retained slow-tier shadow: a
	// scoreboard saturating at 1 is a paged set.
	shadow *scoreboard

	// ShadowDemotions counts demotions satisfied by a retained shadow.
	ShadowDemotions uint64
}

// NewNomad returns a detached Nomad.
func NewNomad(cfg ScanConfig) *Nomad { return &Nomad{Cfg: cfg} }

// Name implements Policy.
func (p *Nomad) Name() string { return "nomad" }

// Attach implements Policy.
func (p *Nomad) Attach(eng *sim.Engine, vm *hypervisor.VM) error {
	if err := p.attach(eng, vm, p.Name(), p.Cfg, nomadMaxScore, nomadFreeTargetFrac); err != nil {
		return err
	}
	p.shadow = newScoreboard(1)
	p.promoted, p.scanned, p.demote = p.shadowPromoted, p.dropDirtyShadow, p.shadowDemote
	return nil
}

// shadowPromoted charges the transactional part of a promotion — shadow
// setup write-protect faults and the dirty-retry tax — and retains the
// slow-tier original as a shadow.
func (p *Nomad) shadowPromoted(gvpn uint64) sim.Duration {
	cost := nomadShadowFaultCount * hypervisor.HintFaultCost
	cost += sim.Duration(nomadDirtyRetryFrac * float64(mem.CopyCost(mem.SpecPMEM, mem.SpecLocalDRAM, mem.PageSize)))
	p.shadow.observe(gvpn, true)
	return cost
}

// dropDirtyShadow invalidates a dirtied page's retained shadow.
func (p *Nomad) dropDirtyShadow(gvpn uint64, e *pagetable.Entry) {
	if e.Dirty() {
		p.shadow.observe(gvpn, false)
	}
}

// shadowDemote demotes a clean shadowed page by dropping the fast copy
// and remapping to the retained shadow. The model approximates this with
// a slow-tier migration charged only the remap and flush costs (no copy:
// the shadow already holds the data). Unshadowed pages, and shadowed ones
// whose remap fails, pay the normal copy; a failed copy charges nothing.
func (p *Nomad) shadowDemote(gvpn uint64) (sim.Duration, bool) {
	vm := p.vm
	if p.shadow.get(gvpn) != 0 {
		if cost, err := vm.MigrateGuestPage(gvpn, 1); err == nil {
			// Refund the copy: the shadow already held the bytes.
			copyCost := mem.CopyCost(mem.SpecLocalDRAM, vm.Kernel.Topo.Nodes[1].Spec, mem.PageSize)
			if cost > copyCost {
				cost -= copyCost
			}
			p.shadow.observe(gvpn, false)
			p.ShadowDemotions++
			return cost, true
		}
	}
	cost, err := vm.MigrateGuestPage(gvpn, 1)
	if err != nil {
		return 0, false
	}
	return cost, true
}
