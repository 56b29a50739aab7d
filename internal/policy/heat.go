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
	counters := p.tr.Counters()
	p.chargeClassify(len(counters))
	p.pages = expandPages(p.pages[:0], counters, 16*p.cfg.MigrationBatch)
	pages := p.pages
	if len(pages) == 0 {
		return
	}

	var max float64
	for _, pg := range pages {
		if pg.score > max {
			max = pg.score
		}
	}
	if max <= 0 {
		return
	}

	promote, coldFast := p.promote[:0], p.demote[:0]
	for _, pg := range pages {
		node, ok := p.residentNode(pg.gvpn)
		if !ok {
			continue
		}
		switch c := heatClass(pg.score, max); {
		case c == 0 && node != 0:
			promote = append(promote, pg.gvpn)
		case c == coldestHeatClass && node == 0:
			coldFast = append(coldFast, pg.gvpn)
		}
	}
	p.promote, p.demote = promote, coldFast
	p.makeRoomAndPromote(promote, coldFast)
}

// makeRoomAndPromote demotes cold fast-tier pages until the promotion
// set fits the fast tier's free frames, then promotes. Shared by the
// heat and threshold policies (the promote/demote skeleton is identical;
// only candidate selection differs).
func (p *tickPolicy) makeRoomAndPromote(promote, coldFast []uint64) {
	if len(promote) == 0 {
		return
	}
	if len(promote) > p.cfg.MigrationBatch {
		promote = promote[:p.cfg.MigrationBatch]
	}
	fastNode := p.vm.Kernel.Topo.Nodes[0]
	need := uint64(len(promote))
	if free := fastNode.FreeFrames(); free < need {
		p.migrate(coldFast, 1, int(need-free))
	}
	p.migrate(promote, 0, p.cfg.MigrationBatch)
}
