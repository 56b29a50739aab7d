// Package damon models the Linux kernel's DAMON profiler (§6.3) and a
// DAMON-based tiering policy, the alternative guest-side scheme the paper
// compares its design against. DAMON estimates per-region access
// frequency by sampling: each sampling interval it checks (and clears)
// the accessed bit of one page per region; each aggregation interval it
// merges regions with similar counts and splits others to adapt.
//
// The paper's §6.3 identifies three limitations relative to Demeter, all
// visible in this model:
//
//   - It relies on PTE.A-bit sampling, so every check-and-clear costs a
//     TLB invalidation (single-address here, since DAMON runs in the
//     guest and knows the gVA).
//   - The kernel's DAMON-based tiering classifies in physical address
//     space; the policy here therefore translates region decisions to
//     pages through the page table, paying the locality loss.
//   - It cannot use EPT-friendly PEBS; its sampling resolution is bounded
//     by the sampling interval rather than the access stream.
package damon

import (
	"fmt"
	"sort"

	"demeter/internal/hypervisor"
	"demeter/internal/sim"
	"demeter/internal/simrand"
)

// Config mirrors DAMON's attrs (sampling/aggregation intervals, region
// bounds), compressed by the caller's time scale.
type Config struct {
	// SamplingInterval is the per-region A-bit probe cadence (Linux
	// default 5ms).
	SamplingInterval sim.Duration
	// AggregationInterval is the split/merge + readout cadence (Linux
	// default 100ms).
	AggregationInterval sim.Duration
	// MaxRegions caps the adaptive region set (Linux default 1000); it
	// may not be below minRegions.
	MaxRegions int
	// Seed fixes the sampling RNG.
	Seed uint64
}

// DefaultConfig returns Linux's defaults.
func DefaultConfig() Config {
	return Config{
		SamplingInterval:    5 * sim.Millisecond,
		AggregationInterval: 100 * sim.Millisecond,
		MaxRegions:          1000,
		Seed:                1,
	}
}

// minRegions is the adaptive region set's floor (Linux default 10).
const minRegions = 10

// mergeThreshold is the nr_accesses difference below which adjacent
// regions merge.
const mergeThreshold = 1

// Region is one monitored address range with its estimated access count.
type Region struct {
	StartPage, EndPage uint64
	// NrAccesses is the number of sampling intervals (within the current
	// aggregation window) whose probe found the region accessed.
	NrAccesses uint32
	// Age counts aggregation intervals the region survived unmerged.
	Age uint32

	// probe is the page mkold'ed last interval (0 = none yet); the next
	// interval checks whether its A bit came back.
	probe uint64
}

// Pages returns the region length.
func (r Region) Pages() uint64 { return r.EndPage - r.StartPage }

// Snapshot is the per-aggregation readout consumers receive.
type Snapshot struct {
	At      sim.Time
	Regions []Region
}

// Profiler samples one VM's workload process.
type Profiler struct {
	Cfg Config

	eng      *sim.Engine
	vm       *hypervisor.VM
	rng      *simrand.Source
	regions  []Region
	sampler  *sim.Ticker
	agg      *sim.Ticker
	active   bool
	OnAgg    func(Snapshot)
	lastSnap Snapshot

	// Samples and Flushes count probe activity (each probe that found
	// the A bit set cleared it and flushed).
	Samples, Flushes uint64
}

// NewProfiler validates cfg and returns a detached profiler. Bad region
// bounds are a caller configuration error and return an error.
func NewProfiler(cfg Config) (*Profiler, error) {
	if cfg.MaxRegions < minRegions {
		return nil, fmt.Errorf("damon: bad region bounds %d/%d", minRegions, cfg.MaxRegions)
	}
	return &Profiler{Cfg: cfg}, nil
}

// Attach starts monitoring the VM's process VMAs.
func (p *Profiler) Attach(eng *sim.Engine, vm *hypervisor.VM) {
	if p.active {
		panic("damon: profiler attached twice")
	}
	p.eng, p.vm, p.active = eng, vm, true
	p.rng = simrand.New(p.Cfg.Seed ^ 0x64616d6f6e)
	for _, r := range vm.Proc.Regions() {
		p.regions = append(p.regions, Region{StartPage: r.Start >> 12, EndPage: (r.End + 4095) >> 12})
	}
	sort.Slice(p.regions, func(i, j int) bool { return p.regions[i].StartPage < p.regions[j].StartPage })
	// Initial split toward minRegions, like damon_set_regions.
	for len(p.regions) < minRegions {
		if !p.splitLargest() {
			break
		}
	}
	p.sampler = eng.StartTicker(p.Cfg.SamplingInterval, func(sim.Time) {
		if p.active {
			p.sample()
		}
	})
	p.agg = eng.StartTicker(p.Cfg.AggregationInterval, func(now sim.Time) {
		if p.active {
			p.aggregate(now)
		}
	})
}

// Detach stops monitoring.
func (p *Profiler) Detach() {
	if !p.active {
		return
	}
	p.active = false
	p.sampler.Stop()
	p.agg.Stop()
}

// Last returns the most recent snapshot.
func (p *Profiler) Last() Snapshot { return p.lastSnap }

// Regions returns the live region set (for tests).
func (p *Profiler) Regions() []Region { return append([]Region(nil), p.regions...) }

// sample runs one DAMON sampling interval per region: check whether the
// previously mkold'ed probe page was accessed during the interval, then
// mkold a fresh random page for the next interval. Each mkold is an A-bit
// clear plus a single-address flush — the TLB cost §6.3 points at.
func (p *Profiler) sample() {
	vm := p.vm
	cm := &vm.Machine.Cost
	var cost sim.Duration
	for i := range p.regions {
		r := &p.regions[i]
		if r.Pages() == 0 {
			continue
		}
		// Check phase: did the armed probe get touched?
		if r.probe != 0 {
			cost += cm.ScanPTECost
			if e := vm.Proc.GPT.Lookup(r.probe); e != nil && e.Accessed() {
				r.NrAccesses++
			}
		}
		// Prepare phase: arm a new probe (mkold + flush).
		page := r.StartPage + p.rng.Uint64n(r.Pages())
		p.Samples++
		cost += cm.ScanPTECost
		if e := vm.Proc.GPT.Lookup(page); e != nil {
			if e.Accessed() {
				e.ClearAccessed()
			}
			cost += vm.FlushSingle(page)
			p.Flushes++
			r.probe = page
		} else {
			r.probe = 0
		}
	}
	vm.ChargeGuest(hypervisor.CompTrack, cost)
}

// aggregate merges similar neighbors, splits to stay adaptive, publishes
// a snapshot and resets counters.
func (p *Profiler) aggregate(now sim.Time) {
	// Merge pass: adjacent regions with close counts collapse.
	merged := p.regions[:1]
	for _, r := range p.regions[1:] {
		last := &merged[len(merged)-1]
		close := diffU32(last.NrAccesses, r.NrAccesses) <= mergeThreshold
		if close && last.EndPage == r.StartPage && len(p.regions) > minRegions {
			last.EndPage = r.EndPage
			last.NrAccesses = (last.NrAccesses + r.NrAccesses) / 2
			if r.Age < last.Age {
				last.Age = r.Age
			}
			continue
		}
		merged = append(merged, r)
	}
	p.regions = merged

	p.lastSnap = Snapshot{At: now, Regions: append([]Region(nil), p.regions...)}
	if p.OnAgg != nil {
		p.OnAgg(p.lastSnap)
	}

	// Split pass: each region splits in two (at a random point) when the
	// budget allows, restoring adaptivity for the next window.
	canSplit := len(p.regions)*2 <= p.Cfg.MaxRegions
	var next []Region
	for _, r := range p.regions {
		r.Age++
		if canSplit && r.Pages() >= 2 {
			cut := r.StartPage + 1 + p.rng.Uint64n(r.Pages()-1)
			next = append(next,
				Region{StartPage: r.StartPage, EndPage: cut, Age: r.Age},
				Region{StartPage: cut, EndPage: r.EndPage, Age: r.Age})
			continue
		}
		r.NrAccesses = 0
		next = append(next, r)
	}
	p.regions = next
	p.vm.ChargeGuest(hypervisor.CompClassify, sim.Duration(len(p.regions))*p.vm.Machine.Cost.PTEOpCost)
}

// splitLargest halves the biggest region; reports false when nothing can
// split further.
func (p *Profiler) splitLargest() bool {
	best, size := -1, uint64(1)
	for i, r := range p.regions {
		if r.Pages() > size {
			best, size = i, r.Pages()
		}
	}
	if best < 0 {
		return false
	}
	r := p.regions[best]
	mid := r.StartPage + r.Pages()/2
	out := append([]Region(nil), p.regions[:best]...)
	out = append(out, Region{StartPage: r.StartPage, EndPage: mid}, Region{StartPage: mid, EndPage: r.EndPage})
	out = append(out, p.regions[best+1:]...)
	p.regions = out
	return true
}

func diffU32(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// Policy is DAMON-based tiered memory management (the DAMOS memtier
// scheme under development that §6.3 references): regions whose
// NrAccesses exceed the hot bar are promoted page by page; cold aged
// regions are demoted to make room.
type Policy struct {
	Prof *Profiler
	// HotBar is the NrAccesses threshold for promotion.
	HotBar uint32
	// MigrationBatch caps page moves per aggregation.
	MigrationBatch int

	vm                *hypervisor.VM
	active            bool
	Promoted, Demoted uint64
}

// NewPolicy wraps a profiler with tiering actions. It shares NewProfiler's
// config validation.
func NewPolicy(cfg Config, hotBar uint32, batch int) (*Policy, error) {
	prof, err := NewProfiler(cfg)
	if err != nil {
		return nil, err
	}
	return &Policy{Prof: prof, HotBar: hotBar, MigrationBatch: batch}, nil
}

// Name implements the TMM policy interface.
func (p *Policy) Name() string { return "damon" }

// Attach implements the TMM policy interface.
func (p *Policy) Attach(eng *sim.Engine, vm *hypervisor.VM) {
	p.vm = vm
	p.active = true
	p.Prof.OnAgg = func(s Snapshot) {
		if p.active {
			p.apply(s)
		}
	}
	p.Prof.Attach(eng, vm)
}

// Detach implements the TMM policy interface.
func (p *Policy) Detach() {
	p.active = false
	p.Prof.Detach()
}

// apply promotes pages of hot regions and demotes pages of cold ones.
func (p *Policy) apply(s Snapshot) {
	vm := p.vm
	kernel := vm.Kernel
	var cost sim.Duration
	moved := 0

	// Demote from cold, aged regions first to free FMEM. "Cold" is
	// relative to the hot bar: tiny counts at high sampling rates are
	// noise, not heat.
	for _, r := range s.Regions {
		if r.NrAccesses >= p.HotBar/2 || r.Age < 2 {
			continue
		}
		for page := r.StartPage; page < r.EndPage && moved < p.MigrationBatch/2; page++ {
			gpfn, ok := vm.Proc.Translate(page)
			if !ok || kernel.NodeOfGPFN(gpfn) != 0 {
				continue
			}
			if c, err := vm.MigrateGuestPage(page, 1); err == nil {
				cost += c
				p.Demoted++
				moved++
			}
		}
	}
	moved = 0
	for _, r := range s.Regions {
		if r.NrAccesses < p.HotBar {
			continue
		}
		for page := r.StartPage; page < r.EndPage && moved < p.MigrationBatch; page++ {
			gpfn, ok := vm.Proc.Translate(page)
			if !ok || kernel.NodeOfGPFN(gpfn) == 0 {
				continue
			}
			if c, err := vm.MigrateGuestPage(page, 0); err == nil {
				cost += c
				p.Promoted++
				moved++
			}
		}
	}
	vm.ChargeGuest(hypervisor.CompMigrate, cost)
}
