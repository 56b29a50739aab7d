package track

import (
	"fmt"

	"demeter/internal/hypervisor"
	"demeter/internal/pagetable"
	"demeter/internal/sim"
)

// scanTracker is bounded guest page-table A-bit scanning through
// internal/guestos, resuming from a cursor like kswapd's incremental LRU
// walks (§2.3.1). Each round checks and clears the A bit of every visited
// page; because the scan runs in the guest and knows each PTE's gVA,
// every cleared bit costs a single-address invalidation, never a full
// flush. The abit and idlepage kinds are this one scanner with different
// visit rules, which decide how a visit scores the page.
type scanTracker struct {
	cfg    Config
	visit  visitRule
	eng    *sim.Engine
	vm     *hypervisor.VM
	ticker *sim.Ticker
	cursor uint64
	active bool

	store pageStore
}

// visitRule scores one scanned page in s: accessed reports whether its A
// bit was set since the last visit.
type visitRule func(s *pageStore, gvpn uint64, accessed bool, now sim.Time)

const (
	defaultABitScanPeriod = 50 * sim.Millisecond
	defaultIdleScanPeriod = 100 * sim.Millisecond
	// abitMaxScore caps the saturating per-page counter, mirroring the
	// scanning designs' LRU-generation approximation.
	abitMaxScore = 8
)

// abitVisit is TPP's tracking half without its policy: an accessed page
// gains a saturating point and a fresh LastSeen, an idle one loses a
// point.
func abitVisit(s *pageStore, gvpn uint64, accessed bool, now sim.Time) {
	if accessed {
		c := s.touch(gvpn)
		if c.Accesses < abitMaxScore {
			c.Accesses++
		}
		c.LastSeen = now
	} else if c := s.at(gvpn); c != nil && c.Accesses > 0 {
		c.Accesses--
	}
}

// idleVisit models Linux's page_idle bitmap style of aging: a page
// observed accessed gets a fresh LastSeen, an idle one is left alone. The
// feed is pure recency — Accesses is always 1 for a page ever seen
// active — so it pairs naturally with the age policy and the serve
// daemon's idle-age histogram (memtierd's `policy -dump accessed` view),
// and shows what frequency-driven policies lose when given recency only.
func idleVisit(s *pageStore, gvpn uint64, accessed bool, now sim.Time) {
	if accessed {
		c := s.touch(gvpn)
		c.Accesses = 1
		c.LastSeen = now
	}
}

// newScanTracker builds a cfg.Kind scanner scoring visits by visit, with
// period as the default round period.
func newScanTracker(cfg Config, period sim.Duration, visit visitRule) Tracker {
	if cfg.Period == 0 {
		cfg.Period = period
	}
	return &scanTracker{cfg: cfg, visit: visit}
}

func (t *scanTracker) Name() string { return t.cfg.Kind }

func (t *scanTracker) Attach(eng *sim.Engine, vm *hypervisor.VM) error {
	if t.active {
		return fmt.Errorf("track: %s tracker already attached", t.cfg.Kind)
	}
	t.eng, t.vm, t.active = eng, vm, true
	t.cursor = 0
	t.store.reset()
	t.ticker = eng.StartTicker(t.cfg.Period, func(sim.Time) {
		if t.active {
			t.round()
		}
	})
	return nil
}

func (t *scanTracker) Detach() {
	if !t.active {
		return
	}
	t.active = false
	t.ticker.Stop()
}

// round is one bounded scan pass: check-and-clear A bits, score visits.
func (t *scanTracker) round() {
	vm := t.vm
	cm := &vm.Machine.Cost
	gpt := vm.Proc.GPT

	batch := t.cfg.ScanBatch
	if batch <= 0 {
		batch = int(gpt.Mapped())
	}
	now := t.eng.Now()
	var flushCost sim.Duration
	visited, next := gpt.ScanFrom(t.cursor, batch, func(gvpn uint64, e *pagetable.Entry) bool {
		accessed := e.Accessed()
		if accessed {
			e.ClearAccessed()
			flushCost += vm.FlushSingle(gvpn)
		}
		t.visit(&t.store, gvpn, accessed, now)
		return true
	})
	t.cursor = next
	chargeTrack(vm, sim.Duration(visited)*cm.ScanPTECost+flushCost)
}

func (t *scanTracker) Counters() []Counter {
	return t.store.counters()
}
