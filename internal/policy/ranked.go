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

	fastNode := p.vm.Kernel.Topo.Nodes[0]
	capacity := int(fastNode.Frames())
	if capacity > len(pages) {
		capacity = len(pages)
	}
	promote, victims := splitRanked(pages, capacity, p.residentNode, p.promote[:0], p.demote[:0])
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

// splitRanked returns the mismatches relative to the ranked split of
// pages at capacity, appended to promote and victims: the slow-tier
// residents among the capacity hottest pages, hottest first, and the
// fast-tier residents among the rest, coldest first (the swap victims).
// Only those pages are sorted, after a selection of the head, and the
// sequences are the ones a walk of the fully sorted pages yields. It
// reorders pages; node reports a page's resident node, ok=false for an
// unmapped page.
func splitRanked(pages []pageScore, capacity int, node func(gvpn uint64) (int, bool), promote, victims []uint64) ([]uint64, []uint64) {
	selectHottest(pages, capacity)
	head := keepResident(pages[:capacity], node, false)
	tail := keepResident(pages[capacity:], node, true)
	sortByScoreDesc(head)
	sortByScoreDesc(tail)
	for _, pg := range head {
		promote = append(promote, pg.gvpn)
	}
	for i := len(tail) - 1; i >= 0; i-- {
		victims = append(victims, tail[i].gvpn)
	}
	return promote, victims
}

// keepResident compacts ps, in place, to its mapped pages resident on
// the fast tier (fast) or off it (!fast).
func keepResident(ps []pageScore, node func(gvpn uint64) (int, bool), fast bool) []pageScore {
	out := ps[:0]
	for _, pg := range ps {
		if n, ok := node(pg.gvpn); ok && (n == 0) == fast {
			out = append(out, pg)
		}
	}
	return out
}
