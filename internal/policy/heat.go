package policy

import (
	"math"

	"demeter/internal/hypervisor"
	"demeter/internal/sim"
	"demeter/internal/track"
)

// heatPolicy is the memtierd-style heat classifier: pages bucket into
// log2 heat classes relative to the hottest observed page, the top
// class is promoted and the coldest class demoted when promotions need
// headroom. Classes are relative, not absolute, so the policy is
// scale-free across feeds — per-page PEBS counts in the hundreds and
// DAMON per-page region estimates below one produce the same class
// structure.
type heatPolicy struct {
	tickPolicy
}

func (p *heatPolicy) Name() string { return "heat" }

func (p *heatPolicy) Attach(eng *sim.Engine, vm *hypervisor.VM, tr track.Tracker) error {
	return p.attach(eng, vm, tr, p.Name(), p.round)
}

// coldestHeatClass is the bucket for pages ≥2^coldestHeatClass× colder
// than the hottest page (and for pages with no signal at all).
const coldestHeatClass = 4

// heatClass buckets a score relative to the round's maximum: class 0 is
// within 2× of the hottest page, class 1 within 4×, …, saturating at
// coldestHeatClass.
func heatClass(score, max float64) int {
	if score <= 0 || max <= 0 {
		return coldestHeatClass
	}
	c := int(math.Floor(math.Log2(max / score)))
	if c < 0 {
		c = 0
	}
	if c > coldestHeatClass {
		c = coldestHeatClass
	}
	return c
}

func (p *heatPolicy) round() {
	pages := p.expand(16 * p.cfg.MigrationBatch)
	var max float64
	for _, pg := range pages {
		if pg.score > max {
			max = pg.score
		}
	}
	if max <= 0 {
		return
	}
	p.makeRoomAndPromote(p.split(pages,
		func(pg pageScore) bool { return heatClass(pg.score, max) == 0 },
		func(pg pageScore) bool { return heatClass(pg.score, max) == coldestHeatClass }))
}
