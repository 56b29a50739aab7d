package tmm

import (
	"fmt"

	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/pagetable"
	"demeter/internal/pebs"
	"demeter/internal/sim"
)

// MemtisConfig tunes the Memtis model.
type MemtisConfig struct {
	// SamplePeriod is the PEBS period. Memtis varies it dynamically to
	// hold a CPU budget; the model uses its steady-state midpoint.
	SamplePeriod uint64
	// PollPeriod is the dedicated collection kthread's cadence.
	PollPeriod sim.Duration
	// HotThreshold is the per-page access count that classifies a page
	// hot. Static thresholds are exactly what §3.2.1 criticizes: pages
	// just below it are never promoted regardless of FMEM headroom.
	HotThreshold float64
	// ClassifyPeriod is the classification + migration cadence.
	ClassifyPeriod sim.Duration
	// MigrationBatch caps page moves per classification round.
	MigrationBatch int
}

// DefaultMemtisConfig mirrors Memtis' published configuration.
func DefaultMemtisConfig() MemtisConfig {
	return MemtisConfig{
		SamplePeriod:   2039,
		PollPeriod:     sim.Millisecond,
		HotThreshold:   4,
		ClassifyPeriod: sim.Second,
		MigrationBatch: 4096,
	}
}

// Memtis' published tunables.
const (
	// memtisKthreadShare is the fraction of one core the collection
	// thread burns even when idle — the overhead Demeter's
	// context-switch draining eliminates (Figure 7's 16× tracking gap).
	memtisKthreadShare = 0.10
	// memtisCoolEveryRounds halves the histogram every N classification
	// rounds (Memtis' periodic cooling).
	memtisCoolEveryRounds = 10
)

// Memtis is the PEBS-based kernel TMM run inside the guest. Differences
// from Demeter, each individually modelled: a dedicated polling thread
// (continuous CPU), per-sample software translation of the sampled gVA to
// a physical page (it classifies in PA space), a per-page histogram
// instead of ranges, and a static hot threshold instead of
// capacity-adaptive ranking.
type Memtis struct {
	Cfg MemtisConfig

	vm       *hypervisor.VM
	unit     *pebs.Unit
	hist     decayCounts // gpfn → decayed access count
	rmap     reverseMap  // gpfn → mapping gVA, for one round's lists
	hot      []uint64    // slow-tier gpfns above the threshold, reused
	coldFast []uint64    // fast-tier gpfns below it, reused
	poll     *sim.Ticker
	classify *sim.Ticker
	active   bool
	stats    MemtisStats
}

// MemtisStats counts activity.
type MemtisStats struct {
	Samples    uint64
	Translated uint64
	Promoted   uint64
	Demoted    uint64
	Rounds     uint64
}

// NewMemtis returns a detached Memtis.
func NewMemtis(cfg MemtisConfig) *Memtis { return &Memtis{Cfg: cfg} }

// Name implements Policy.
func (p *Memtis) Name() string { return "memtis" }

// Stats returns a copy of the counters.
func (p *Memtis) Stats() MemtisStats { return p.stats }

// Attach implements Policy.
func (p *Memtis) Attach(eng *sim.Engine, vm *hypervisor.VM) error {
	if p.active {
		return errAttachedTwice(p.Name())
	}
	unit, err := pebs.NewUnit(pebs.ConfigWithPeriod(p.Cfg.SamplePeriod))
	if err != nil {
		return fmt.Errorf("tmm: bad Memtis PEBS config: %w", err)
	}
	if err := unit.Arm(); err != nil {
		return fmt.Errorf("tmm: Memtis PEBS arm failed: %w", err)
	}
	p.vm, p.active = vm, true
	p.hist = newDecayCounts(vm.Kernel.Topo.TotalFrames())
	p.rmap = make(reverseMap, vm.Kernel.Topo.TotalFrames())
	p.unit = unit
	vm.WirePEBS(unit)
	unit.OnPMI = func() {
		vm.ChargeGuest(hypervisor.CompTrack, hypervisor.PMICost)
		p.drain()
	}

	p.poll = eng.StartTicker(p.Cfg.PollPeriod, func(sim.Time) {
		if !p.active {
			return
		}
		// The kthread burns its share whether or not samples arrived.
		vm.ChargeGuest(hypervisor.CompTrack, sim.Duration(float64(p.Cfg.PollPeriod)*memtisKthreadShare))
		p.drain()
	})
	p.classify = eng.StartTicker(p.Cfg.ClassifyPeriod, func(sim.Time) {
		if p.active {
			p.round()
		}
	})
	return nil
}

// Detach implements Policy.
func (p *Memtis) Detach() {
	if !p.active {
		return
	}
	p.active = false
	p.poll.Stop()
	p.classify.Stop()
	p.unit.Disarm()
}

// drain consumes PEBS samples, translating each to a physical page —
// the per-sample page-table walk Demeter's direct-gVA feed avoids.
func (p *Memtis) drain() {
	samples := p.unit.Drain()
	if len(samples) == 0 {
		return
	}
	vm := p.vm
	cost := sim.Duration(len(samples)) * (hypervisor.SampleHandleCost + hypervisor.TranslateCost)
	vm.ChargeGuest(hypervisor.CompTrack, cost)
	for _, s := range samples {
		p.stats.Samples++
		if gpfn, ok := vm.Proc.Translate(s.GVPN); ok {
			p.stats.Translated++
			p.hist.bump(uint64(gpfn))
		}
	}
}

// round decays the histogram and migrates by static threshold.
func (p *Memtis) round() {
	vm := p.vm
	kernel := vm.Kernel

	hot, coldFast := p.hot[:0], p.coldFast[:0]
	cool := (p.stats.Rounds+1)%memtisCoolEveryRounds == 0
	p.hist.walk(cool, func(gpfn uint64, count float64) {
		if count >= p.Cfg.HotThreshold {
			if kernel.NodeOfGPFN(mem.Frame(gpfn)) != 0 && len(hot) < p.Cfg.MigrationBatch {
				hot = append(hot, gpfn)
			}
		} else if kernel.NodeOfGPFN(mem.Frame(gpfn)) == 0 && len(coldFast) < 4*p.Cfg.MigrationBatch {
			coldFast = append(coldFast, gpfn)
		}
	})
	p.hot, p.coldFast = hot, coldFast
	vm.ChargeGuest(hypervisor.CompClassify, sim.Duration(p.hist.len())*hypervisor.PTEOpCost)
	p.stats.Rounds++

	// Memtis migrates physical pages; the guest variant moves the gVA
	// mapped at each gpfn. Find the gVAs by a reverse scan, bounded by
	// the batch — this cost is part of classification.
	if len(hot) == 0 {
		return
	}
	p.rmap.fill(vm.Proc.GPT, hot, coldFast)
	defer p.rmap.clear(hot, coldFast)
	vm.ChargeGuest(hypervisor.CompClassify, sim.Duration(vm.Proc.GPT.Mapped())*hypervisor.PTEOpCost/4)

	var migrateCost sim.Duration
	fastNode := kernel.Topo.Nodes[0]
	ci := 0
	for fastNode.FreeFrames() < uint64(len(hot)) && ci < len(coldFast) {
		if gvpn, ok := p.rmap.gva(coldFast[ci]); ok {
			if cost, err := vm.MigrateGuestPage(gvpn, 1); err == nil {
				migrateCost += cost
				p.stats.Demoted++
			}
		}
		ci++
	}
	for _, gpfn := range hot {
		gvpn, ok := p.rmap.gva(gpfn)
		if !ok {
			continue
		}
		if cost, err := vm.MigrateGuestPage(gvpn, 0); err == nil {
			migrateCost += cost
			p.stats.Promoted++
		}
	}
	vm.ChargeGuest(hypervisor.CompMigrate, migrateCost)
}

// reverseMap finds the gVA currently mapping each wanted gpfn: a
// gpfn-indexed slice reused across rounds, holding 0 for a gpfn not
// wanted, rmapWanted for one wanted but not yet found, and gvpn+1 once
// found. A round clears only the entries it set.
type reverseMap []uint64

const rmapWanted = ^uint64(0)

// fill marks every gpfn of the lists wanted, then scans gpt in gvpn
// order until each has been found. The lists hold distinct gpfns.
func (r reverseMap) fill(gpt *pagetable.Table, lists ...[]uint64) {
	wanted := 0
	for _, l := range lists {
		for _, gpfn := range l {
			r[gpfn] = rmapWanted
		}
		wanted += len(l)
	}
	found := 0
	gpt.Scan(func(gvpn uint64, e *pagetable.Entry) bool {
		if v := &r[e.Value()]; *v != 0 {
			if *v == rmapWanted {
				found++
			}
			*v = gvpn + 1
		}
		return found < wanted
	})
}

// gva returns the gVA found mapping gpfn.
func (r reverseMap) gva(gpfn uint64) (gvpn uint64, ok bool) {
	if v := r[gpfn]; v != 0 && v != rmapWanted {
		return v - 1, true
	}
	return 0, false
}

// clear resets the entries fill set from the same lists.
func (r reverseMap) clear(lists ...[]uint64) {
	for _, l := range lists {
		for _, gpfn := range l {
			r[gpfn] = 0
		}
	}
}
