package track

import (
	"fmt"

	"demeter/internal/hypervisor"
	"demeter/internal/pagetable"
	"demeter/internal/sim"
)

// abitTracker is TPP's tracking half without its policy: bounded guest
// page-table A-bit scan rounds through internal/guestos, resuming from a
// cursor like kswapd's incremental LRU walks (§2.3.1). Because the scan
// runs in the guest and knows each PTE's gVA, every cleared bit costs a
// single-address invalidation, never a full flush. An accessed page gains
// a saturating score and a fresh LastSeen; an idle page decays one step
// per visit.
type abitTracker struct {
	cfg    Config
	eng    *sim.Engine
	vm     *hypervisor.VM
	ticker *sim.Ticker
	cursor uint64
	active bool

	store pageStore
}

const (
	defaultABitScanPeriod = 50 * sim.Millisecond
	// abitMaxScore caps the saturating per-page counter, mirroring the
	// scanning designs' LRU-generation approximation.
	abitMaxScore = 8
)

func newABitTracker(cfg Config) (Tracker, error) {
	if cfg.Period == 0 {
		cfg.Period = defaultABitScanPeriod
	}
	return &abitTracker{cfg: cfg}, nil
}

func (t *abitTracker) Name() string { return "abit" }

func (t *abitTracker) Attach(eng *sim.Engine, vm *hypervisor.VM) error {
	if t.active {
		return fmt.Errorf("track: abit tracker already attached")
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

func (t *abitTracker) Detach() {
	if !t.active {
		return
	}
	t.active = false
	t.ticker.Stop()
}

// round is one bounded scan pass: check-and-clear A bits, update scores.
func (t *abitTracker) round() {
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
		t.visit(gvpn, accessed, now)
		return true
	})
	t.cursor = next
	chargeTrack(vm, sim.Duration(visited)*cm.ScanPTECost+flushCost)
}

// visit scores one scanned page: an accessed page gains a saturating
// point and a fresh LastSeen, an idle one loses a point.
func (t *abitTracker) visit(gvpn uint64, accessed bool, now sim.Time) {
	if accessed {
		c := t.store.touch(gvpn)
		if c.Accesses < abitMaxScore {
			c.Accesses++
		}
		c.LastSeen = now
	} else if c := t.store.at(gvpn); c != nil && c.Accesses > 0 {
		c.Accesses--
	}
}

func (t *abitTracker) Counters() []Counter {
	return t.store.counters()
}
