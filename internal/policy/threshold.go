package policy

import (
	"demeter/internal/hypervisor"
	"demeter/internal/sim"
	"demeter/internal/track"
)

// thresholdPolicy is the Memtis-style static classifier: pages at or
// above HotThreshold are hot and belong on the fast tier, everything
// else is demotion fodder when promotions need room. It inherits the
// weakness §3.2.1 criticizes — pages just under the bar never promote
// regardless of FMEM headroom — which is exactly why it earns its place
// as the comparison baseline for the adaptive kinds.
type thresholdPolicy struct {
	tickPolicy
}

func (p *thresholdPolicy) Name() string { return "threshold" }

func (p *thresholdPolicy) Attach(eng *sim.Engine, vm *hypervisor.VM, tr track.Tracker) error {
	return p.attach(eng, vm, tr, p.Name(), p.round)
}

func (p *thresholdPolicy) round() {
	counters := p.tr.Counters()
	p.chargeClassify(len(counters))
	p.pages = expandPages(p.pages[:0], counters, 16*p.cfg.MigrationBatch)
	pages := p.pages
	if len(pages) == 0 {
		return
	}

	promote, coldFast := p.promote[:0], p.demote[:0]
	for _, pg := range pages {
		node, ok := p.residentNode(pg.gvpn)
		if !ok {
			continue
		}
		switch {
		case pg.score >= p.cfg.HotThreshold && node != 0:
			promote = append(promote, pg.gvpn)
		case pg.score < p.cfg.HotThreshold && node == 0:
			coldFast = append(coldFast, pg.gvpn)
		}
	}
	p.promote, p.demote = promote, coldFast
	p.makeRoomAndPromote(promote, coldFast)
}
