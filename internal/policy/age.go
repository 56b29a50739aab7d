package policy

import (
	"demeter/internal/hypervisor"
	"demeter/internal/sim"
	"demeter/internal/track"
)

// agePolicy is memtierd's idle-age rule: a page seen within ActiveWithin
// belongs on the fast tier, a page idle for at least IdleAfter belongs
// on the slow tier, and pages in between stay put (the hysteresis band
// that keeps borderline pages from ping-ponging). It consumes only
// recency, so it pairs with every tracker including the frequency-free
// idlepage scanner.
type agePolicy struct {
	tickPolicy
}

func (p *agePolicy) Name() string { return "age" }

func (p *agePolicy) Attach(eng *sim.Engine, vm *hypervisor.VM, tr track.Tracker) error {
	return p.attach(eng, vm, tr, p.Name(), p.round)
}

func (p *agePolicy) round() {
	counters := p.tr.Counters()
	p.chargeClassify(len(counters))
	p.pages = expandPages(p.pages[:0], counters, 16*p.cfg.MigrationBatch)
	pages := p.pages
	if len(pages) == 0 {
		return
	}
	now := p.eng.Now()

	promote, idleFast := p.promote[:0], p.demote[:0]
	for _, pg := range pages {
		node, ok := p.residentNode(pg.gvpn)
		if !ok {
			continue
		}
		age := now - pg.seen
		switch {
		case age <= p.cfg.ActiveWithin && node != 0:
			promote = append(promote, pg.gvpn)
		case age >= p.cfg.IdleAfter && node == 0:
			idleFast = append(idleFast, pg.gvpn)
		}
	}
	p.promote, p.demote = promote, idleFast
	// Idle pages demote unconditionally — that is the aging semantic —
	// and the freed frames then serve this round's promotions.
	p.migrate(idleFast, 1, p.cfg.MigrationBatch)
	p.migrate(promote, 0, p.cfg.MigrationBatch)
}
