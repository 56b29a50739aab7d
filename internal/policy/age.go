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
	pages := p.expand(16 * p.cfg.MigrationBatch)
	if len(pages) == 0 {
		return
	}
	now := p.eng.Now()
	promote, idleFast := p.split(pages,
		func(pg pageScore) bool { return now-pg.seen <= p.cfg.ActiveWithin },
		func(pg pageScore) bool { return now-pg.seen >= p.cfg.IdleAfter })
	// Idle pages demote unconditionally — that is the aging semantic —
	// and the freed frames then serve this round's promotions.
	p.migrate(idleFast, 1, p.cfg.MigrationBatch)
	p.migrate(promote, 0, p.cfg.MigrationBatch)
}
