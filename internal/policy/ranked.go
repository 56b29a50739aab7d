package policy

import (
	"demeter/internal/hypervisor"
	"demeter/internal/sim"
	"demeter/internal/track"
)

// rankedPolicy is capacity-adaptive ranking in the spirit of Demeter's
// classifier (§3.2.1): sort every tracked page by score, define the
// fast-tier working set as the top-capacity slice, and fix mismatches —
// promoting into free frames while they last and balanced-swapping
// (§3.2.3) a wrongly-placed hot page with the coldest wrongly-placed
// fast-tier page once FMEM is full. No threshold: the capacity is the
// threshold.
type rankedPolicy struct {
	tickPolicy
}

// rankedExpandLimit bounds the per-round ranking view. Serve-scale
// footprints are a few thousand pages; a tracker covering more than
// this ranks only its hottest prefix per round.
const rankedExpandLimit = 1 << 16

func (p *rankedPolicy) Name() string { return "ranked" }

func (p *rankedPolicy) Attach(eng *sim.Engine, vm *hypervisor.VM, tr track.Tracker) error {
	return p.attach(eng, vm, tr, p.Name(), p.round)
}

func (p *rankedPolicy) round() {
	pages := p.expand(rankedExpandLimit)
	if len(pages) == 0 {
		return
	}
	sortByScoreDesc(pages)

	fastNode := p.vm.Kernel.Topo.Nodes[0]
	capacity := int(fastNode.Frames())
	if capacity > len(pages) {
		capacity = len(pages)
	}

	// Mismatches relative to the ranked split: wantFast pages resident
	// on the slow tier, and beyond-capacity pages occupying fast frames
	// (coldest last, so walk the tail backwards for swap victims).
	promote := p.promote[:0]
	victims := p.demote[:0] // coldest-first fast-tier residents past the split
	for i := len(pages) - 1; i >= capacity; i-- {
		if node, ok := p.residentNode(pages[i].gvpn); ok && node == 0 {
			victims = append(victims, pages[i].gvpn)
		}
	}
	for _, pg := range pages[:capacity] {
		if node, ok := p.residentNode(pg.gvpn); ok && node != 0 {
			promote = append(promote, pg.gvpn)
		}
	}
	p.promote, p.demote = promote, victims

	var cost sim.Duration
	moved, vi := 0, 0
	for _, gvpn := range promote {
		if moved >= p.cfg.MigrationBatch {
			break
		}
		if fastNode.FreeFrames() > 0 {
			c, err := p.vm.MigrateGuestPage(gvpn, 0)
			cost += c
			if err == nil {
				moved++
			}
			continue
		}
		if vi >= len(victims) {
			break
		}
		c, err := p.vm.SwapGuestPages(gvpn, victims[vi])
		cost += c
		vi++
		if err == nil {
			moved++
		}
	}
	p.vm.ChargeGuest(hypervisor.CompMigrate, cost)
}
