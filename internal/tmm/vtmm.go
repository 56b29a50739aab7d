package tmm

import (
	"slices"

	"demeter/internal/hypervisor"
	"demeter/internal/pagetable"
	"demeter/internal/sim"
)

// vTMM's published tunables.
const (
	// vtmmDirtyResetBatch is how many EPT D bits are cleared per round
	// to re-arm PML (each batch forces an invept, like A-bit harvesting).
	vtmmDirtyResetBatch = 4096
	// vtmmHotFraction is the share of FMEM refilled with the sort's top
	// pages each round.
	vtmmHotFraction = 0.5
)

// DefaultVTMMConfig mirrors vTMM's published cadence at full time scale,
// with its read-side EPT A-bit scan bounded to 28000 pages per round.
func DefaultVTMMConfig() ScanConfig {
	cfg := DefaultScanConfig()
	cfg.ScanBatchPages = 28000
	return cfg
}

// VTMM models vTMM (EuroSys'23): hypervisor-based tiered memory
// management that tracks guest writes with Intel PML and reads with EPT
// A-bit scanning, classifies by sorting per-page access counts, and
// migrates at the host level. It inherits every hypervisor-side handicap
// the paper identifies: PML's fixed-frequency VM exits (§7.3), full EPT
// invalidations to re-arm both A and D bits, sorting cost over
// uncorrelated physical pages, and host-level migration flushes.
// Cfg.ScanPeriod is also the classification cadence: vTMM aggregates
// access information across rounds, then sorts page frequencies.
type VTMM struct {
	Cfg ScanConfig

	vm          *hypervisor.VM
	pml         *hypervisor.PML
	counts      decayCounts // gpfn → access score
	pages       []pageScore // classification buffer, reused across rounds
	ticker      *sim.Ticker
	cursor      uint64
	dirtyCursor uint64
	active      bool
	stats       ScanStats

	// PMLExits mirrors the PML unit's exit count for reporting.
	PMLExits uint64
}

// NewVTMM returns a detached vTMM.
func NewVTMM(cfg ScanConfig) *VTMM { return &VTMM{Cfg: cfg} }

// Name implements Policy.
func (p *VTMM) Name() string { return "vtmm" }

// Stats returns a copy of the counters.
func (p *VTMM) Stats() ScanStats { return p.stats }

// Attach implements Policy.
func (p *VTMM) Attach(eng *sim.Engine, vm *hypervisor.VM) error {
	if p.active {
		return errAttachedTwice(p.Name())
	}
	p.vm, p.active = vm, true
	p.counts = newDecayCounts(vm.Kernel.Topo.TotalFrames())
	p.pml = hypervisor.NewPML()
	p.pml.OnFull = func(gpfns []uint64) {
		// Drain on the exit path: each logged write bumps its page.
		vm.ChargeHost(hypervisor.CompTrack, sim.Duration(len(gpfns))*hypervisor.SampleHandleCost)
		for _, g := range gpfns {
			p.counts.bump(g)
		}
	}
	vm.EnablePML(p.pml)
	p.ticker = eng.StartTicker(p.Cfg.ScanPeriod, func(sim.Time) {
		if p.active {
			p.round()
		}
	})
	return nil
}

// Detach implements Policy.
func (p *VTMM) Detach() {
	if !p.active {
		return
	}
	p.active = false
	p.ticker.Stop()
	p.vm.DisablePML()
}

func (p *VTMM) round() {
	vm := p.vm
	cm := &vm.Machine.Cost
	fastHost := vm.Machine.Topo.FastNode()
	slowHost := vm.Machine.Topo.SlowNode()

	// Read-side tracking: EPT A-bit scan (like H-TPP, full flush per
	// round because there is no gVA to invalidate with).
	cleared := 0
	visited, next := vm.EPT.ScanFrom(p.cursor, p.Cfg.scanBudget(vm.EPT.Mapped()), func(gpfn uint64, e *pagetable.Entry) bool {
		if e.Accessed() {
			e.ClearAccessed()
			p.counts.bump(gpfn)
			cleared++
		}
		return true
	})
	p.cursor = next
	var flushCost sim.Duration
	if cleared > 0 {
		flushCost += vm.FlushFull()
	}

	// Write-side re-arm: clear a batch of D bits so PML keeps logging;
	// EPT modification again requires invept.
	dirtyCleared := 0
	_, p.dirtyCursor = vm.EPT.ScanFrom(p.dirtyCursor, vtmmDirtyResetBatch, func(gpfn uint64, e *pagetable.Entry) bool {
		if e.Dirty() {
			e.ClearDirty()
			dirtyCleared++
		}
		return true
	})
	if dirtyCleared > 0 {
		flushCost += vm.FlushFull()
	}
	p.stats.Rounds++
	p.PMLExits = p.pml.Stats().Exits

	scanCost := sim.Duration(visited+vtmmDirtyResetBatch) * cm.ScanPTECost
	vm.ChargeHost(hypervisor.CompTrack, scanCost+flushCost)

	// Classification: sort all tracked pages by score (vTMM's frequency
	// sort), charging n log n comparisons. The order is total, so the
	// result does not depend on the sort algorithm.
	pages := p.pages[:0]
	p.counts.walk(true, func(gpfn uint64, score float64) {
		pages = append(pages, pageScore{gpfn, score})
	})
	p.pages = pages
	slices.SortFunc(pages, func(a, b pageScore) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		case a.gpfn < b.gpfn:
			return -1
		case a.gpfn > b.gpfn:
			return 1
		}
		return 0
	})
	n := len(pages)
	sortCost := sim.Duration(0)
	if n > 1 {
		logN := 0
		for v := n; v > 1; v >>= 1 {
			logN++
		}
		sortCost = sim.Duration(n*logN) * hypervisor.PTEOpCost
	}
	vm.ChargeHost(hypervisor.CompClassify, sortCost)

	// Migration: fill a slice of FMEM with the sort's top pages.
	var migrateCost sim.Duration
	budget := int(float64(fastHost.Frames()) * vtmmHotFraction)
	if budget > p.Cfg.MigrationBatch {
		budget = p.Cfg.MigrationBatch
	}
	moved := 0
	for _, ps := range pages {
		if moved >= budget {
			break
		}
		he := vm.EPT.Lookup(ps.gpfn)
		if he == nil || fastHost.Contains(hostFrameOf(he)) {
			continue
		}
		// Make room by demoting from the bottom of the sort.
		if fastHost.FreeFrames() == 0 {
			demoted := false
			for i := len(pages) - 1; i > 0; i-- {
				ce := vm.EPT.Lookup(pages[i].gpfn)
				if ce == nil || !fastHost.Contains(hostFrameOf(ce)) {
					continue
				}
				if cost, ok := vm.HostMigrate(pages[i].gpfn, slowHost.ID); ok {
					migrateCost += cost
					p.stats.Demoted++
					demoted = true
				}
				pages = pages[:i]
				break
			}
			if !demoted {
				break
			}
		}
		if cost, ok := vm.HostMigrate(ps.gpfn, fastHost.ID); ok {
			migrateCost += cost
			p.stats.Promoted++
			moved++
		}
	}
	vm.ChargeHost(hypervisor.CompMigrate, migrateCost)
}

// pageScore is one tracked page in classification order.
type pageScore struct {
	gpfn  uint64
	score float64
}
