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
	pages := p.expand(16 * p.cfg.MigrationBatch)
	if len(pages) == 0 {
		return
	}
	bar := p.cfg.HotThreshold
	p.makeRoomAndPromote(p.split(pages,
		func(pg pageScore) bool { return pg.score >= bar },
		func(pg pageScore) bool { return pg.score < bar }))
}
