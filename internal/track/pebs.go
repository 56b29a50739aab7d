package track

import (
	"fmt"

	"demeter/internal/hypervisor"
	"demeter/internal/pebs"
	"demeter/internal/sim"
)

// pebsTracker feeds per-page counters from EPT-friendly PEBS samples —
// the same hardware feed core.Demeter consumes, minus its range tree.
// Samples carry gVAs directly (§3.2.2), so no per-sample translation is
// charged. Counts decay by half each drain period, approximating an
// exponentially weighted access rate.
type pebsTracker struct {
	cfg    Config
	eng    *sim.Engine
	vm     *hypervisor.VM
	unit   *pebs.Unit
	ticker *sim.Ticker
	active bool

	store pageStore
}

const (
	defaultPEBSDrainPeriod  = 10 * sim.Millisecond
	defaultPEBSSamplePeriod = 4093
	// pebsDecay halves counts each drain period; with the default 10 ms
	// period the window covers ~a few epochs of heat.
	pebsDecay = 0.5
	// pebsEvict zeroes a page's count once it decays below this floor,
	// so a faded page reads as unsampled until the next sample.
	pebsEvict = 0.05
)

func newPEBSTracker(cfg Config) (Tracker, error) {
	if cfg.Period == 0 {
		cfg.Period = defaultPEBSDrainPeriod
	}
	if cfg.SamplePeriod == 0 {
		cfg.SamplePeriod = defaultPEBSSamplePeriod
	}
	// Construct a unit now purely to surface config errors at New time;
	// Attach builds the real one so re-attach gets fresh hardware state.
	if _, err := pebs.NewUnit(pebs.ConfigWithPeriod(cfg.SamplePeriod)); err != nil {
		return nil, fmt.Errorf("track: pebs tracker: %w", err)
	}
	return &pebsTracker{cfg: cfg}, nil
}

func (t *pebsTracker) Name() string { return "pebs" }

func (t *pebsTracker) Attach(eng *sim.Engine, vm *hypervisor.VM) error {
	if t.active {
		return fmt.Errorf("track: pebs tracker already attached")
	}
	unit, err := pebs.NewUnit(pebs.ConfigWithPeriod(t.cfg.SamplePeriod))
	if err != nil {
		return fmt.Errorf("track: pebs tracker: %w", err)
	}
	vm.WirePEBS(unit)
	if err := unit.Arm(); err != nil {
		return fmt.Errorf("track: pebs tracker: %w", err)
	}
	t.eng, t.vm, t.unit, t.active = eng, vm, unit, true
	t.store.reset()
	unit.OnPMI = func() {
		if !t.active {
			return
		}
		chargeTrack(vm, hypervisor.PMICost)
		t.drain()
	}
	t.ticker = eng.StartTicker(t.cfg.Period, func(sim.Time) {
		if !t.active {
			return
		}
		t.drain()
		t.decay()
	})
	return nil
}

func (t *pebsTracker) Detach() {
	if !t.active {
		return
	}
	t.active = false
	t.ticker.Stop()
	t.unit.Disarm()
}

func (t *pebsTracker) drain() {
	samples := t.unit.Drain()
	if len(samples) == 0 {
		return
	}
	chargeTrack(t.vm, sim.Duration(len(samples))*hypervisor.SampleHandleCost)
	now := t.eng.Now()
	for _, s := range samples {
		t.sample(s.GVPN, now)
	}
}

// sample counts one PEBS sample against its page.
func (t *pebsTracker) sample(gvpn uint64, now sim.Time) {
	c := t.store.touch(gvpn)
	c.Accesses++
	c.LastSeen = now
}

// decay halves all counts, zeroing pages that faded out. Eviction only
// drops the frequency estimate; LastSeen survives so recency-driven
// policies keep aging the page rather than forgetting it.
func (t *pebsTracker) decay() {
	for i := range t.store.pages {
		c := &t.store.pages[i]
		if c.Accesses *= pebsDecay; c.Accesses < pebsEvict {
			c.Accesses = 0
		}
	}
}

func (t *pebsTracker) Counters() []Counter {
	return t.store.counters()
}
