package tmm

import (
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/pagetable"
	"demeter/internal/sim"
)

// H-TPP's tunables, as the paper converts TPP to the hypervisor.
const (
	// tpphPromoteThreshold / tpphMaxScore as in TPP, but over gPFNs.
	tpphPromoteThreshold = 2
	tpphMaxScore         = 4
	// tpphFlushBatchPages is how many cleared A bits the MMU notifier
	// accumulates before issuing one full EPT invalidation. KVM batches
	// notifier work, but every batch still costs an invept because EPT
	// entries carry no gVA to invalidate selectively (§2.3.1).
	tpphFlushBatchPages = 512
	// tpphNotifierStallFrac is the fraction of scan time the guest is
	// stalled by mmu_lock contention.
	tpphNotifierStallFrac = 0.5
	// tpphShootdownStall is guest vCPU time lost to the IPI storm of
	// each invept shootdown (all vCPUs are interrupted).
	tpphShootdownStall = 8 * sim.Microsecond
)

// TPPH is the hypervisor-based TPP (the paper's H-TPP / TPP-H): it scans
// EPT A bits through the KVM MMU notifier and migrates pages by changing
// their host backing. It sees only gPAs and hPAs; without gVAs every
// A-bit harvest batch and every migration forces a destructive full EPT
// invalidation — the mechanism behind Table 1's 2.5× slowdown. The
// notifier processes bounded batches of Cfg.ScanBatchPages EPT entries.
type TPPH struct {
	Cfg ScanConfig

	vm     *hypervisor.VM
	board  *scoreboard
	ticker *sim.Ticker
	cursor uint64
	active bool
	stats  ScanStats

	// hot and coldFast are the round's candidate buffers, reused across
	// rounds.
	hot, coldFast []uint64
}

// NewTPPH returns a detached hypervisor TPP.
func NewTPPH(cfg ScanConfig) *TPPH { return &TPPH{Cfg: cfg} }

// Name implements Policy.
func (p *TPPH) Name() string { return "tpp-h" }

// Stats returns a copy of the counters.
func (p *TPPH) Stats() ScanStats { return p.stats }

// Attach implements Policy.
func (p *TPPH) Attach(eng *sim.Engine, vm *hypervisor.VM) {
	if p.active {
		panic("tmm: TPPH attached twice")
	}
	p.vm, p.active = vm, true
	p.board = newScoreboard(tpphMaxScore)
	p.ticker = eng.StartTicker(p.Cfg.ScanPeriod, func(sim.Time) {
		if p.active {
			p.round()
		}
	})
}

// Detach implements Policy.
func (p *TPPH) Detach() {
	if !p.active {
		return
	}
	p.active = false
	p.ticker.Stop()
}

func (p *TPPH) round() {
	vm := p.vm
	cm := &vm.Machine.Cost
	fastHost := vm.Machine.Topo.FastNode()
	slowHost := vm.Machine.Topo.SlowNode()

	hot := p.hot[:0]           // gpfns on SMEM with score >= threshold
	coldFast := p.coldFast[:0] // gpfns on FMEM with score 0
	var flushCost sim.Duration
	cleared := 0
	fulls := 0

	visited, next := vm.EPT.ScanFrom(p.cursor, p.Cfg.scanBudget(vm.EPT.Mapped()), func(gpfn uint64, e *pagetable.Entry) bool {
		accessed := e.Accessed()
		if accessed {
			e.ClearAccessed()
			cleared++
			// The notifier batches clears; each batch ends in invept.
			if cleared%tpphFlushBatchPages == 0 {
				flushCost += vm.FlushFull()
				fulls++
			}
		}
		score := p.board.observe(gpfn, accessed)
		onFast := fastHost.Contains(hostFrameOf(e))
		switch {
		case !onFast && score >= tpphPromoteThreshold && len(hot) < p.Cfg.MigrationBatch:
			hot = append(hot, gpfn)
		case onFast && score == 0 && len(coldFast) < 4*p.Cfg.MigrationBatch:
			coldFast = append(coldFast, gpfn)
		}
		return true
	})
	if cleared > 0 && cleared%tpphFlushBatchPages != 0 {
		flushCost += vm.FlushFull() // trailing partial batch
		fulls++
	}
	p.hot, p.coldFast = hot, coldFast
	p.cursor = next
	p.stats.Rounds++

	scanCost := sim.Duration(visited) * cm.ScanPTECost
	vm.ChargeHost(hypervisor.CompTrack, scanCost+flushCost)
	vm.ChargeHost(hypervisor.CompClassify, sim.Duration(visited)*hypervisor.PTEOpCost/2)
	// Notifier scanning holds mmu_lock against the guest's fault paths,
	// and every invept shootdown interrupts all vCPUs.
	vm.Stall(sim.Duration(float64(scanCost) * tpphNotifierStallFrac))
	vm.Stall(sim.Duration(fulls) * tpphShootdownStall * sim.Duration(vm.VCPUs))

	// Migration at the hypervisor's discretion: demote cold, promote hot.
	var migrateCost sim.Duration
	target := uint64(len(hot))
	ci := 0
	for fastHost.FreeFrames() < target && ci < len(coldFast) {
		cost, ok := vm.HostMigrate(coldFast[ci], slowHost.ID)
		ci++
		if !ok {
			continue
		}
		migrateCost += cost
		p.stats.Demoted++
	}
	for _, gpfn := range hot {
		cost, ok := vm.HostMigrate(gpfn, fastHost.ID)
		if !ok {
			continue
		}
		migrateCost += cost
		p.stats.Promoted++
	}
	vm.ChargeHost(hypervisor.CompMigrate, migrateCost)
}

// hostFrameOf extracts the host frame from an EPT entry.
func hostFrameOf(e *pagetable.Entry) mem.Frame { return mem.Frame(e.Value()) }
