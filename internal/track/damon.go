package track

import (
	"fmt"
	"sort"

	"demeter/internal/damon"
	"demeter/internal/hypervisor"
	"demeter/internal/sim"
)

// damonTracker adapts the DAMON region profiler (§6.3) to the Tracker
// read model. Each aggregation snapshot becomes the counter set
// verbatim — whole regions, not pages — with recency carried across
// snapshots: a region the latest snapshot saw idle inherits the newest
// LastSeen of the previous counters it overlaps, so ages keep growing
// between the moments DAMON notices activity.
type damonTracker struct {
	cfg    Config
	prof   *damon.Profiler
	vm     *hypervisor.VM
	active bool

	counters []Counter
}

func newDAMONTracker(cfg Config) (Tracker, error) {
	t := &damonTracker{cfg: cfg}
	// Validate now so a bad period surfaces at config time; Attach
	// rebuilds the profiler fresh.
	if _, err := damon.NewProfiler(t.damonConfig()); err != nil {
		return nil, fmt.Errorf("track: damon tracker: %w", err)
	}
	return t, nil
}

func (t *damonTracker) Name() string { return "damon" }

func (t *damonTracker) damonConfig() damon.Config {
	dcfg := damon.DefaultConfig()
	if t.cfg.Period != 0 {
		dcfg.AggregationInterval = t.cfg.Period
		// Keep Linux's 20:1 aggregation:sampling shape under rescaling.
		dcfg.SamplingInterval = t.cfg.Period / 20
		if dcfg.SamplingInterval <= 0 {
			dcfg.SamplingInterval = 1
		}
	}
	if t.cfg.Seed != 0 {
		dcfg.Seed = t.cfg.Seed
	}
	return dcfg
}

func (t *damonTracker) Attach(eng *sim.Engine, vm *hypervisor.VM) error {
	if t.active {
		return fmt.Errorf("track: damon tracker already attached")
	}
	prof, err := damon.NewProfiler(t.damonConfig())
	if err != nil {
		return fmt.Errorf("track: damon tracker: %w", err)
	}
	if err := prof.Attach(eng, vm); err != nil {
		return fmt.Errorf("track: damon tracker: %w", err)
	}
	t.prof, t.vm, t.active = prof, vm, true
	t.counters = nil
	prof.OnAgg = func(s damon.Snapshot) {
		if t.active {
			t.fold(s)
		}
	}
	return nil
}

func (t *damonTracker) Detach() {
	if !t.active {
		return
	}
	t.active = false
	t.prof.Detach()
}

// fold replaces the counter set with the snapshot's regions, inheriting
// recency for regions the profiler saw idle this window.
func (t *damonTracker) fold(s damon.Snapshot) {
	prev := t.counters
	next := make([]Counter, 0, len(s.Regions))
	for _, r := range s.Regions {
		c := Counter{
			StartGVPN: r.StartPage,
			EndGVPN:   r.EndPage,
			Accesses:  float64(r.NrAccesses),
		}
		if r.NrAccesses > 0 {
			c.LastSeen = s.At
		} else {
			c.LastSeen = newestOverlap(prev, r.StartPage, r.EndPage)
		}
		next = append(next, c)
	}
	sort.Slice(next, func(i, j int) bool { return next[i].StartGVPN < next[j].StartGVPN })
	t.counters = next
}

// newestOverlap returns the latest LastSeen among prev counters
// overlapping [start, end). prev is sorted by StartGVPN.
func newestOverlap(prev []Counter, start, end uint64) sim.Time {
	var newest sim.Time
	for _, c := range prev {
		if c.StartGVPN >= end {
			break
		}
		if c.EndGVPN > start && c.LastSeen > newest {
			newest = c.LastSeen
		}
	}
	return newest
}

func (t *damonTracker) Counters() []Counter { return t.counters }
