package tmm

import (
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/pagetable"
	"demeter/internal/sim"
)

// ScanStats counts scanning-design activity (shared by TPP/TPPH/Nomad).
type ScanStats struct {
	Rounds   uint64
	Promoted uint64
	Demoted  uint64
}

// guestScan is the guest A-bit machinery TPP and Nomad share: bounded
// GPT scan rounds that clear A bits with single-address invalidations,
// a NUMA-balancing mark pass that arms promotion traps, promotion from
// the resulting hint fault, and kswapd-style watermark demotion. The
// hooks are where a design departs from plain TPP; nil means TPP's
// behaviour.
type guestScan struct {
	cfg          ScanConfig
	freeTarget   float64 // FMEM free watermark, as a fraction of FMEM
	vm           *hypervisor.VM
	board        *scoreboard
	ticker       *sim.Ticker
	cursor       uint64
	markCursor   uint64
	prevPromoted uint64 // promotions as of the previous mark pass
	active       bool
	stats        ScanStats
	coldFast     []uint64 // round's demotion candidates, reused across rounds

	// promoted runs after a successful hint-fault promotion and returns
	// extra critical-path cost.
	promoted func(gvpn uint64) sim.Duration
	// scanned sees every PTE a scan round visits, after its A bit is
	// harvested.
	scanned func(gvpn uint64, e *pagetable.Entry)
	// demote moves one cold fast-tier page down and reports the cost to
	// charge and whether the page left the fast tier.
	demote func(gvpn uint64) (sim.Duration, bool)
}

// Stats returns a copy of the counters.
func (g *guestScan) Stats() ScanStats { return g.stats }

// attach starts scanning vm with cfg and the design's saturating score
// and free-frame watermark; design names the policy in the double-attach
// panic.
func (g *guestScan) attach(eng *sim.Engine, vm *hypervisor.VM, design string, cfg ScanConfig, maxScore uint8, freeTarget float64) {
	if g.active {
		panic("tmm: " + design + " attached twice")
	}
	g.cfg, g.freeTarget, g.vm, g.active = cfg, freeTarget, vm, true
	g.board = newScoreboard(maxScore)
	vm.OnHintFault = g.hintFault
	g.ticker = eng.StartTicker(cfg.ScanPeriod, func(sim.Time) {
		if g.active {
			g.round()
		}
	})
}

// Detach implements Policy.
func (g *guestScan) Detach() {
	if !g.active {
		return
	}
	g.active = false
	g.vm.OnHintFault = nil
	g.ticker.Stop()
}

// hintFault promotes the faulting page if a fast-tier frame is free; the
// whole cost lands on the faulting access (the critical path), which is
// TPP's characteristic promotion overhead.
func (g *guestScan) hintFault(gvpn uint64) sim.Duration {
	vm := g.vm
	cost := hypervisor.HintFaultCost
	e := vm.Proc.GPT.Lookup(gvpn)
	if e == nil {
		return cost
	}
	e.ClearHint()
	mCost, err := vm.MigrateGuestPage(gvpn, 0)
	cost += mCost // failed attempts still burn the work already done
	if err == nil {
		g.stats.Promoted++
		if g.promoted != nil {
			cost += g.promoted(gvpn)
		}
	}
	vm.Ledger.Charge(hypervisor.CompMigrate, cost)
	return cost
}

// round is one scan-classify-migrate pass.
func (g *guestScan) round() {
	vm := g.vm
	cm := &vm.Machine.Cost
	gpt := vm.Proc.GPT
	kernel := vm.Kernel

	coldFast := g.coldFast[:0] // FMEM-resident, score 0: demotion candidates
	var flushCost sim.Duration
	visited, next := gpt.ScanFrom(g.cursor, g.cfg.scanBudget(gpt.Mapped()), func(gvpn uint64, e *pagetable.Entry) bool {
		accessed := e.Accessed()
		onFast := kernel.NodeOfGPFN(mem.Frame(e.Value())) == 0
		prev := g.board.get(gvpn)
		if !accessed && onFast && prev > 0 {
			// Second-chance verification: a scored fast-tier page that
			// looks idle may just have a stale TLB entry from an earlier
			// no-flush clear. Invalidate it so the next access re-walks
			// and the following round observes the truth — genuinely hot
			// pages bounce back before their score decays to demotion.
			flushCost += vm.FlushSingle(gvpn)
		}
		if accessed {
			e.ClearAccessed()
			if !onFast || prev < g.board.max {
				// Flush only where precise recency matters: promotion
				// candidates in SMEM and not-yet-established fast-tier
				// pages. Saturated hot pages are cleared WITHOUT a flush
				// — Linux's clear_young path — so their observation goes
				// stale for a pass or two and the score dips before the
				// next accurate pass restores it. This keeps TPP's
				// invlpg volume well below its resident page count while
				// still aging genuinely cold pages to zero.
				flushCost += vm.FlushSingle(gvpn)
			}
		}
		if g.scanned != nil {
			g.scanned(gvpn, e)
		}
		score := g.board.observe(gvpn, accessed)
		if e.Hinted() && score < g.board.max {
			// The candidate cooled off before its promotion fault fired;
			// expire the trap so stale marks don't win frames from
			// genuinely hot pages.
			e.ClearHint()
		}
		if onFast && score == 0 && len(coldFast) < 4*g.cfg.MigrationBatch {
			coldFast = append(coldFast, gvpn)
		}
		return true
	})
	g.coldFast = coldFast
	g.cursor = next
	g.stats.Rounds++

	vm.ChargeGuest(hypervisor.CompTrack, sim.Duration(visited)*cm.ScanPTECost+flushCost)
	vm.ChargeGuest(hypervisor.CompClassify, sim.Duration(visited)*hypervisor.PTEOpCost/2)

	g.markPass()
	g.demoteCold(coldFast)
}

// markPass is the NUMA-balancing side: a rate-limited, rotating pass that
// arms promotion traps on qualifying slow-tier pages. The position cursor
// wraps at the end of the table, so every candidate gets marked within a
// few rounds and the page's own access decides the promotion race.
func (g *guestScan) markPass() {
	vm := g.vm
	kernel := vm.Kernel
	// Adaptive budget, like NUMA balancing's scan-rate backoff: marking
	// far beyond migration capacity only manufactures failed promotion
	// faults on the critical path.
	recent := int(g.stats.Promoted - g.prevPromoted)
	g.prevPromoted = g.stats.Promoted
	markCap := 2*recent + 32
	if markCap > 4*g.cfg.MigrationBatch {
		markCap = 4 * g.cfg.MigrationBatch
	}
	marked := 0
	var cost sim.Duration
	visited, next := vm.Proc.GPT.ScanFrom(g.markCursor, g.cfg.scanBudget(vm.Proc.GPT.Mapped()), func(gvpn uint64, e *pagetable.Entry) bool {
		// Mark only saturated-score pages: sustained heat across several
		// scans, not a lucky window. This is what keeps the promotion
		// race dominated by genuinely hot pages instead of cold drifters
		// whose A bit happened to be set. A deeper counter (Nomad's
		// max score 6 against TPP's 4) makes saturation slower to reach.
		if kernel.NodeOfGPFN(mem.Frame(e.Value())) != 0 && !e.Hinted() &&
			g.board.get(gvpn) >= g.board.max {
			e.MarkHint()
			cost += vm.FlushSingle(gvpn) // PROT_NONE change
			marked++
			if marked >= markCap {
				return false
			}
		}
		return true
	})
	g.markCursor = next
	// The pass rides along the balancing scan; charge a light touch per
	// visited PTE plus the flushes.
	vm.ChargeGuest(hypervisor.CompTrack, sim.Duration(visited)*hypervisor.PTEOpCost+cost)
}

// demoteCold is the kswapd side: restore the free watermark so hint
// faults find frames, demoting the coldest fast-tier pages, bounded per
// round.
func (g *guestScan) demoteCold(coldFast []uint64) {
	vm := g.vm
	fastNode := vm.Kernel.Topo.Nodes[0]
	var migrateCost sim.Duration
	target := uint64(float64(fastNode.Frames()) * g.freeTarget)
	moved := 0
	ci := 0
	for fastNode.FreeFrames() < target && ci < len(coldFast) && moved < g.cfg.MigrationBatch {
		gvpn := coldFast[ci]
		ci++
		var cost sim.Duration
		var ok bool
		if g.demote != nil {
			cost, ok = g.demote(gvpn)
		} else {
			var err error
			cost, err = vm.MigrateGuestPage(gvpn, 1)
			ok = err == nil
		}
		migrateCost += cost
		if ok {
			g.stats.Demoted++
			moved++
		}
	}
	vm.ChargeGuest(hypervisor.CompMigrate, migrateCost)
}
