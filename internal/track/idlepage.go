package track

import (
	"fmt"

	"demeter/internal/hypervisor"
	"demeter/internal/pagetable"
	"demeter/internal/sim"
)

// idleTracker models Linux's page_idle bitmap style of aging: each round
// it marks every visited page "idle" by clearing its A bit, and a page
// observed accessed on a later visit gets a fresh LastSeen. The feed is
// pure recency — Accesses is always 1 for a page ever seen active — so
// it pairs naturally with the age policy and the serve daemon's
// idle-age histogram (memtierd's `policy -dump accessed` view), and
// shows what frequency-driven policies lose when given recency only.
type idleTracker struct {
	cfg    Config
	eng    *sim.Engine
	vm     *hypervisor.VM
	ticker *sim.Ticker
	cursor uint64
	active bool

	store pageStore
}

const defaultIdleScanPeriod = 100 * sim.Millisecond

func newIdleTracker(cfg Config) (Tracker, error) {
	if cfg.Period == 0 {
		cfg.Period = defaultIdleScanPeriod
	}
	return &idleTracker{cfg: cfg}, nil
}

func (t *idleTracker) Name() string { return "idlepage" }

func (t *idleTracker) Attach(eng *sim.Engine, vm *hypervisor.VM) error {
	if t.active {
		return fmt.Errorf("track: idlepage tracker already attached")
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

func (t *idleTracker) Detach() {
	if !t.active {
		return
	}
	t.active = false
	t.ticker.Stop()
}

func (t *idleTracker) round() {
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
		if e.Accessed() {
			e.ClearAccessed()
			flushCost += vm.FlushSingle(gvpn)
			t.markActive(gvpn, now)
		}
		return true
	})
	t.cursor = next
	chargeTrack(vm, sim.Duration(visited)*cm.ScanPTECost+flushCost)
}

// markActive records a page found accessed since its last visit.
func (t *idleTracker) markActive(gvpn uint64, now sim.Time) {
	c := t.store.touch(gvpn)
	c.Accesses = 1
	c.LastSeen = now
}

func (t *idleTracker) Counters() []Counter {
	return t.store.counters()
}
