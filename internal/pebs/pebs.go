// Package pebs models Processor Event-Based Sampling as exposed to a guest
// VM by PEBS version 5 ("EPT-friendly PEBS", §2.3.2 and §3.2.2 of the
// paper). The model captures the properties the paper's design depends on:
//
//   - Samples carry the *guest virtual address* of the load, so a
//     guest-side consumer needs no address translation per sample —
//     unlike HeMem/Memtis, which translate each sample to a physical page.
//   - The sample buffer is guest-private (virtualized via vmcs.debugctl),
//     so concurrent VMs never see each other's samples.
//   - The load-latency event with MSR_PEBS_LD_LAT_THRESHOLD filters out
//     cache hits: only accesses slower than the threshold are eligible.
//   - When the buffer fills before software drains it, the overshoot
//     raises a Performance Monitoring Interrupt (PMI) whose handling cost
//     is the inefficiency Demeter's fixed-period, context-switch-drained
//     design avoids.
//   - Before version 5, an architectural erratum made guest PEBS unsafe
//     with lazily populated EPTs; the model refuses to arm in that
//     configuration unless eager mapping is requested, mirroring §2.3.2.
package pebs

import (
	"fmt"

	"demeter/internal/fault"
	"demeter/internal/obs"
	"demeter/internal/sim"
)

// Fault points for the sampling hardware. An overflow loses the sample
// that triggered it (on top of raising a PMI); a storm delivers a burst
// of spurious PMIs, the interrupt-pressure scenario adaptive sampling is
// built to survive.
var (
	FaultBufferOverflow = fault.Register("pebs.buffer-overflow", "pebs",
		"sample lost to a spurious buffer overflow (PMI raised)", 0.002, 0)
	FaultPMIStorm = fault.Register("pebs.pmi-storm", "pebs",
		"burst of magnitude spurious PMIs", 0.0005, 8)
)

// Event selects the PMU event programmed as the PEBS trigger.
type Event int

const (
	// EventLoadLatency is MEM_TRANS_RETIRED.LOAD_LATENCY: media-agnostic,
	// samples loads from every tier that exceed the latency threshold.
	// One event covers a whole tiered system. Demeter's choice.
	EventLoadLatency Event = iota
	// EventL3Miss is MEM_LOAD_L3_MISS_RETIRED-style cache-miss sampling:
	// media-specific, sees only slow-tier traffic, and a two-tier system
	// needs at least two counters (doubling management overhead). Kept as
	// the ablation baseline (HeMem/Memtis heritage).
	EventL3Miss
)

func (e Event) String() string {
	switch e {
	case EventLoadLatency:
		return "MEM_TRANS_RETIRED.LOAD_LATENCY"
	case EventL3Miss:
		return "MEM_LOAD_L3_MISS_RETIRED"
	default:
		return fmt.Sprintf("Event(%d)", int(e))
	}
}

// ConfigWithPeriod is DefaultConfig with the sample period replaced —
// the first adjustment every consumer (core.Demeter, tmm.Memtis, the
// track package) makes, so they share one construction path.
func ConfigWithPeriod(period uint64) Config {
	c := DefaultConfig()
	c.SamplePeriod = period
	return c
}

// Sample is one PEBS record as the guest sees it.
type Sample struct {
	GVPN    uint64       // guest virtual page number of the load
	Latency sim.Duration // measured load-to-use latency
}

// Config programs a sampling unit.
type Config struct {
	// SamplePeriod is the number of qualifying events between consecutive
	// buffer writes (the inverse of sample frequency). The paper's
	// empirically chosen default is 4093.
	SamplePeriod uint64
	// LatencyThreshold is the MSR_PEBS_LD_LAT_THRESHOLD value: loads
	// faster than this never qualify. 64ns sits between the platform's
	// 53.6ns cache hit and 68.7ns DRAM latencies.
	LatencyThreshold sim.Duration
	// BufferEntries is the PEBS buffer capacity before a PMI fires.
	BufferEntries int
	// Event selects the trigger event.
	Event Event
	// Version is the PEBS architecture version. Versions < 5 carry the
	// EPT interaction erratum and require EagerEPT to arm inside a VM.
	Version int
	// EagerEPT declares that the VM's memory is fully pre-mapped and
	// unswappable, the pre-v5 workaround that sacrifices overcommitment.
	EagerEPT bool

	// AdaptivePeriod enables graceful degradation under interrupt
	// pressure: sustained PMI storms double the effective sample period
	// (fewer samples, fewer interrupts) and calm windows halve it back
	// toward the programmed base.
	AdaptivePeriod bool
}

// Adaptive-period model. Every caller runs the same adaptation rule, so
// its thresholds are constants.
const (
	// stormPMIs is the PMI count within one adaptation window that
	// qualifies as a storm.
	stormPMIs = 4
	// calmWindows is how many consecutive PMI-free windows must pass
	// before the period narrows one step.
	calmWindows = 2
	// adaptWindowPeriods is the adaptation window length in base sample
	// periods: a window is adaptWindowPeriods × SamplePeriod qualifying
	// events.
	adaptWindowPeriods = 16
	// maxPeriodShift caps widening at SamplePeriod << maxPeriodShift
	// (64× the base period).
	maxPeriodShift = 6
)

// DefaultConfig is the paper's production configuration (§3.2.2, §5.2.3).
func DefaultConfig() Config {
	return Config{
		SamplePeriod:     4093,
		LatencyThreshold: 64,
		BufferEntries:    512,
		Event:            EventLoadLatency,
		Version:          5,
	}
}

// Stats counts unit activity.
type Stats struct {
	Qualifying uint64 // accesses that passed the event/threshold filter
	Samples    uint64 // records written to the buffer
	PMIs       uint64 // buffer overshoots (including injected spurious ones)
	Dropped    uint64 // samples lost (full buffer without handler, or fault)
	Drains     uint64 // Drain invocations
	Widenings  uint64 // adaptive period doublings under PMI storms
	Narrowings uint64 // adaptive period halvings after calm windows
}

// Unit is one VM's virtualized PEBS facility. The buffer is private to the
// owning VM by construction: nothing outside the Unit can observe samples.
type Unit struct {
	cfg     Config
	armed   bool
	counter uint64
	buffer  []Sample
	spare   []Sample // drained buffer recycled at the next Drain
	stats   Stats

	period    uint64 // effective sample period (== cfg.SamplePeriod unless adapted)
	winEvents uint64 // qualifying events in the current adaptation window
	winPMIs   int    // PMIs in the current adaptation window
	calm      int    // consecutive PMI-free windows

	// OnPMI, when set, is invoked on buffer overshoot. The handler is
	// expected to Drain; its CPU cost is charged by the caller's ledger.
	OnPMI func()

	// Fault, when non-nil, injects buffer overflows and PMI storms.
	Fault *fault.Injector

	// Journal, when non-nil, receives an EvPMI record per delivered
	// interrupt, stamped via Now and tagged with the owning VM's Tag.
	// PMIs are rare by design (the whole point of §3.2.2's fixed low
	// sample frequency), so journaling them stays off the hot path.
	Journal *obs.Journal
	// Now supplies simulated time for journal records.
	Now func() sim.Time
	// Tag identifies the owning VM in journal records.
	Tag int32
}

// NewUnit validates cfg and returns a disarmed unit.
func NewUnit(cfg Config) (*Unit, error) {
	if cfg.SamplePeriod == 0 {
		return nil, fmt.Errorf("pebs: sample period must be positive")
	}
	if cfg.BufferEntries <= 0 {
		return nil, fmt.Errorf("pebs: buffer must hold at least one entry")
	}
	if cfg.LatencyThreshold < 0 {
		return nil, fmt.Errorf("pebs: negative latency threshold")
	}
	// The sample buffer is preallocated at full capacity so the record
	// path's append never grows a backing array (the hotpath analyzer's
	// suppression in Record relies on this, as does the 0 allocs/op
	// access-path contract).
	return &Unit{
		cfg:     cfg,
		counter: cfg.SamplePeriod,
		period:  cfg.SamplePeriod,
		buffer:  make([]Sample, 0, cfg.BufferEntries),
	}, nil
}

// Arm enables sampling. Under a pre-v5 PEBS with a lazily populated EPT
// the write process can be interrupted by an EPT fault and corrupt machine
// state (the erratum in §2.3.2), so arming fails unless EagerEPT is set.
func (u *Unit) Arm() error {
	if u.cfg.Version < 5 && !u.cfg.EagerEPT {
		return fmt.Errorf("pebs: version %d is not EPT-friendly; guest PEBS requires eager EPT mapping", u.cfg.Version)
	}
	u.armed = true
	return nil
}

// Disarm stops sampling; buffered samples remain drainable.
func (u *Unit) Disarm() { u.armed = false }

// Armed reports whether the unit is sampling.
func (u *Unit) Armed() bool { return u.armed }

// Config returns the programmed configuration.
func (u *Unit) Config() Config { return u.cfg }

// Stats returns a copy of the counters.
func (u *Unit) Stats() Stats { return u.stats }

// Record observes one guest load: gvpn is the accessed virtual page,
// latency the modelled load latency, fastTier whether the backing frame is
// FMEM. It is the per-access hot path and does nothing beyond a counter
// decrement for non-qualifying or between-period accesses.
//
//demeter:hotpath
func (u *Unit) Record(gvpn uint64, latency sim.Duration, fastTier bool) {
	if !u.armed {
		return
	}
	if latency < u.cfg.LatencyThreshold {
		return // filtered by MSR_PEBS_LD_LAT_THRESHOLD
	}
	if u.cfg.Event == EventL3Miss && fastTier {
		// Cache-miss events are media-specific: a single counter sees
		// only slow-tier traffic.
		return
	}
	u.stats.Qualifying++
	u.tickWindow()
	if fired, magn := u.Fault.FireMagnitude(FaultPMIStorm); fired {
		// Spurious interrupt burst: each PMI costs the guest a handler
		// invocation but delivers no sample.
		burst := int(magn)
		if burst < 1 {
			burst = 1
		}
		for i := 0; i < burst; i++ {
			u.pmi()
		}
	}
	u.counter--
	if u.counter > 0 {
		return
	}
	u.counter = u.period
	if u.Fault.Fire(FaultBufferOverflow) {
		// The write that should have stored this record overflowed: the
		// hardware raises a PMI but the sample is gone.
		u.pmi()
		u.stats.Dropped++
		return
	}
	if len(u.buffer) >= u.cfg.BufferEntries {
		// Overshoot: PMI if a handler is installed, else the record is
		// lost. Either way the hardware signals the overflow.
		u.pmi()
		if len(u.buffer) >= u.cfg.BufferEntries {
			u.stats.Dropped++
			return
		}
	}
	//lint:allow hotpath buffer capacity is preallocated to BufferEntries at construction and Drain, and the overshoot check above bounds len
	u.buffer = append(u.buffer, Sample{GVPN: gvpn, Latency: latency})
	u.stats.Samples++
}

// RecordBatch observes a homogeneous run of consecutive guest loads: every
// access in gvpns was served at the same latency from the same tier, in
// stream order. It is the batched access path's replacement for per-sample
// Record calls: the filter checks (armed, threshold, event media) are paid
// once per run instead of once per access, and the period countdown skips
// straight to each sampling access instead of decrementing through the
// non-sampling ones.
//
// The contract is bit-exactness with the equivalent scalar loop
//
//	for _, g := range gvpns { u.Record(g, latency, fastTier) }
//
// for every counter, sample, PMI and drop. The bulk skip below is only
// taken when nothing per-access is observable: a fault injector draws the
// PMI-storm stream per qualifying access and the adaptive-period window
// advances per qualifying event, so either feature routes through the
// scalar loop unchanged.
//
//demeter:hotpath
func (u *Unit) RecordBatch(gvpns []uint64, latency sim.Duration, fastTier bool) {
	if !u.armed || len(gvpns) == 0 {
		return
	}
	if latency < u.cfg.LatencyThreshold {
		return // the whole run is filtered by MSR_PEBS_LD_LAT_THRESHOLD
	}
	if u.cfg.Event == EventL3Miss && fastTier {
		return
	}
	if u.Fault != nil || u.cfg.AdaptivePeriod {
		for _, g := range gvpns {
			u.Record(g, latency, fastTier)
		}
		return
	}
	u.stats.Qualifying += uint64(len(gvpns))
	i := 0
	for {
		if left := uint64(len(gvpns) - i); u.counter > left {
			u.counter -= left
			return
		}
		// The u.counter-th access from here (inclusive) is the sampling one.
		i += int(u.counter) - 1
		u.counter = u.period
		if len(u.buffer) >= u.cfg.BufferEntries {
			// Overshoot: PMI if a handler is installed, else the record is
			// lost. Either way the hardware signals the overflow.
			u.pmi()
			if len(u.buffer) >= u.cfg.BufferEntries {
				u.stats.Dropped++
				i++
				continue
			}
		}
		//lint:allow hotpath buffer capacity is preallocated to BufferEntries at construction and Drain, and the overshoot check above bounds len
		u.buffer = append(u.buffer, Sample{GVPN: gvpns[i], Latency: latency})
		u.stats.Samples++
		i++
	}
}

// pmi delivers one performance-monitoring interrupt.
func (u *Unit) pmi() {
	u.stats.PMIs++
	u.winPMIs++
	if u.Journal != nil {
		var at sim.Time
		if u.Now != nil {
			at = u.Now()
		}
		u.Journal.Append(obs.Event{At: at, Type: obs.EvPMI, VM: u.Tag, Arg1: uint64(len(u.buffer))})
	}
	if u.OnPMI != nil {
		u.OnPMI()
	}
}

// CurrentPeriod returns the effective sample period, which adaptation may
// have widened beyond the programmed base.
func (u *Unit) CurrentPeriod() uint64 { return u.period }

// tickWindow advances the adaptation window and adjusts the effective
// period at each boundary: a storm of PMIs doubles it (shedding sample
// and interrupt load), sustained calm halves it back toward the base.
//
//demeter:hotpath
func (u *Unit) tickWindow() {
	if !u.cfg.AdaptivePeriod {
		return
	}
	u.winEvents++
	if u.winEvents < adaptWindowPeriods*u.cfg.SamplePeriod {
		return
	}
	u.winEvents = 0
	switch {
	case u.winPMIs >= stormPMIs:
		max := u.cfg.SamplePeriod << maxPeriodShift
		if u.period < max {
			u.period *= 2
			if u.period > max {
				u.period = max
			}
			u.stats.Widenings++
		}
		u.calm = 0
	case u.winPMIs == 0 && u.period > u.cfg.SamplePeriod:
		u.calm++
		if u.calm >= calmWindows {
			u.calm = 0
			u.period /= 2
			if u.period < u.cfg.SamplePeriod {
				u.period = u.cfg.SamplePeriod
			}
			u.stats.Narrowings++
		}
	default:
		u.calm = 0
	}
	u.winPMIs = 0
}

// Drain returns all buffered samples and empties the buffer. The unit
// double-buffers: the returned slice is valid until the next Drain, when
// it is recycled as the fill buffer. Callers (the policies' sample
// handlers) consume the samples before returning, so the aliasing window
// is never observable.
func (u *Unit) Drain() []Sample {
	u.stats.Drains++
	if len(u.buffer) == 0 {
		return nil
	}
	out := u.buffer
	u.buffer = u.spare[:0]
	if u.buffer == nil {
		u.buffer = make([]Sample, 0, u.cfg.BufferEntries)
	}
	u.spare = out
	return out
}

// Buffered returns the number of undrained samples.
func (u *Unit) Buffered() int { return len(u.buffer) }
