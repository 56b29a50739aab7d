package core

import (
	"errors"
	"fmt"

	"demeter/internal/fault"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/obs"
	"demeter/internal/pagetable"
	"demeter/internal/pebs"
	"demeter/internal/sim"
)

// Delegation-path fault points. All register at default rate 0: a guest
// agent failing is a scenario to arm deliberately (chaos -faults, the
// degraded experiment, the explorer's agent-failure dimension), not part
// of the ambient DefaultSchedule — the default chaos ladder keeps its
// historical behavior.
var (
	// FaultAgentCrash kills the guest tiering agent: epochs, drains and
	// heartbeats stop. Magnitude is the restart latency in epochs before
	// a recovery probe can succeed.
	FaultAgentCrash = fault.Register("guest.agent-crash", "core",
		"guest tiering agent crashes; delegation freezes until the agent restarts (magnitude = restart latency in epochs)", 0, 32)
	// FaultAgentStall pauses the agent (GC pause, vCPU starvation) for
	// magnitude epochs; it recovers on its own.
	FaultAgentStall = fault.Register("guest.agent-stall", "core",
		"guest tiering agent stalls for magnitude epochs (GC pause, CPU starvation), then resumes by itself", 0, 16)
	// FaultChannelWedge stops the sample channel's consumer so the
	// channel fills and every further push drops.
	FaultChannelWedge = fault.Register("channel.wedge", "core",
		"sample channel consumer wedges: the channel fills and all further pushes drop until host reconciliation", 0, 0)
)

// Config assembles all of Demeter's tunables.
type Config struct {
	// Params drives the range tree (τ_split, granularity).
	Params Params
	// EpochPeriod is t_split, the classification epoch (paper: 500 ms;
	// scaled runs compress it together with every other period).
	EpochPeriod sim.Duration
	// SamplePeriod is the PEBS sampling period (paper: 4093).
	SamplePeriod uint64
	// LatencyThreshold is the PEBS load-latency filter (paper: 64 ns).
	LatencyThreshold sim.Duration
	// Event selects the PEBS trigger; Demeter uses the media-agnostic
	// load-latency event (§3.2.2 "Event Selection").
	Event pebs.Event
	// MigrationBatch caps pages promoted per epoch.
	MigrationBatch int
	// DrainAtContextSwitch selects Demeter's integrated draining. When
	// false, a dedicated polling thread drains instead (the
	// HeMem/Memtis-style ablation baseline).
	DrainAtContextSwitch bool
	// PollPeriod is the polling cadence when DrainAtContextSwitch is
	// false.
	PollPeriod sim.Duration
	// TranslateSamples, when true, charges a software gVA→PA walk per
	// sample (the overhead physical-space classifiers pay and Demeter's
	// direct-gVA design avoids; ablation knob).
	TranslateSamples bool
	// SequentialRelocation, when true, replaces balanced swapping with
	// the traditional demote-then-promote sequence through temporarily
	// allocated pages (§3.2.3's criticized baseline; ablation knob).
	// Each demotion under memory pressure also pays a direct-reclaim
	// penalty, the cascading cost balanced swapping avoids.
	SequentialRelocation bool
}

// Fixed tunables: the paper's values, which no caller changes.
const (
	// channelCapacity bounds the sample channel.
	channelCapacity = 1 << 14
	// minHotSamples is the minimum decayed access count a range needs to
	// source promotions: ranges whose counts are sampling noise must not
	// trigger page movement.
	minHotSamples = 8
	// hysteresisRatio gates swapping: a promotion candidate's range must
	// be at least this many times hotter (per page) than the demotion
	// candidate's range. Without it, equal-temperature cold ranges at
	// the FMEM boundary would swap back and forth every epoch.
	hysteresisRatio = 1.5
	// adaptiveSampling lets the PEBS unit widen its sample period under
	// sustained PMI storms and narrow it back when calm (graceful
	// degradation instead of an interrupt livelock).
	adaptiveSampling = true
	// maxPageRetries caps how often one page is requeued after a
	// transient migration failure before it is abandoned (the classifier
	// will rediscover it if it stays hot).
	maxPageRetries = 4
	// rangeRetryBudget caps total retries charged against one range per
	// its lifetime in the retry queue; a range whose pages keep failing
	// is backed off wholesale.
	rangeRetryBudget = 64
	// retryBackoffCap bounds the exponential epoch backoff between
	// retries of the same page (in epochs).
	retryBackoffCap = 8
)

// Validate checks every invariant Attach would otherwise panic on (bad
// PEBS parameters, zero periods), so config-driven callers — the serve
// daemon — can reject a bad Config as an ordinary error before any
// engine or VM state is touched. Harness
// code with compile-time-constant configs may still rely on the Attach
// panics.
func (c Config) Validate() error {
	if c.EpochPeriod <= 0 {
		return fmt.Errorf("core: epoch period must be positive, got %v", c.EpochPeriod)
	}
	if c.SamplePeriod == 0 {
		return errors.New("core: sample period must be positive")
	}
	if c.LatencyThreshold < 0 {
		return fmt.Errorf("core: negative latency threshold %v", c.LatencyThreshold)
	}
	if c.MigrationBatch <= 0 {
		return fmt.Errorf("core: migration batch must be positive, got %d", c.MigrationBatch)
	}
	if !c.DrainAtContextSwitch && c.PollPeriod <= 0 {
		return errors.New("core: polling drain needs a positive poll period")
	}
	if c.Params.GranularityPages == 0 {
		return errors.New("core: range granularity must be at least one page")
	}
	return nil
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Params:               DefaultParams(),
		EpochPeriod:          500 * sim.Millisecond,
		SamplePeriod:         4093,
		LatencyThreshold:     64,
		Event:                pebs.EventLoadLatency,
		MigrationBatch:       4096,
		DrainAtContextSwitch: true,
		PollPeriod:           sim.Millisecond,
	}
}

// Stats counts Demeter's activity.
type Stats struct {
	Samples      uint64 // samples drained from PEBS
	Promoted     uint64
	Demoted      uint64
	Epochs       uint64
	SwapPairs    uint64
	FreePromotes uint64 // promotions into free FMEM (no demotion needed)

	Busy      uint64 // relocations refused (page pinned/busy)
	Rollbacks uint64 // relocations rolled back on copy fault
	Retries   uint64 // retry attempts dequeued from the retry queue
	RetriedOK uint64 // retries that eventually promoted
	Abandoned uint64 // candidates dropped after exhausting retry budgets
}

// Demeter is the guest-delegated TMM policy. One instance manages one VM.
type Demeter struct {
	Cfg Config

	// OnEpoch, when set, receives a heartbeat at the end of every
	// completed classification epoch. A crashed or stalled agent stops
	// beating — this is the delegation health monitor's liveness signal.
	OnEpoch func(now sim.Time)

	eng    *sim.Engine
	vm     *hypervisor.VM
	unit   *pebs.Unit
	ch     *SampleChannel
	tree   *RangeTree
	ticker *sim.Ticker
	poll   *sim.Ticker
	active bool
	stats  Stats

	// Agent failure state (guest.agent-crash / guest.agent-stall). A
	// crashed agent stays down until restartAt, when a recovery probe may
	// restart it; a stalled agent resumes by itself at stalledUntil.
	crashed      bool
	restartAt    sim.Time
	stalledUntil sim.Time

	// hookInstalled guards the context-switch drain hook: kernel hooks
	// accumulate, so across degrade/handback re-attach cycles the hook is
	// registered exactly once and consults d.active.
	hookInstalled bool
	// obsInstalled guards the delegation obs hook the same way.
	obsInstalled bool
	// prevDropped accumulates samples dropped by channels discarded at
	// re-attach, so delegation_samples_dropped is monotonic per VM.
	prevDropped uint64

	// retryQ holds pages whose relocation failed transiently (busy page,
	// copy fault, exhausted target pool); each entry carries a capped
	// exponential epoch backoff so a persistently failing page does not
	// hog every epoch's migration budget.
	retryQ []retryEntry
	// rangeRetries charges retries against the candidate's range; a
	// range over budget has its pages abandoned instead of requeued. The
	// counters decay by half each epoch.
	rangeRetries map[uint64]int

	// proms and demos are relocate's candidate buffers, reused across
	// epochs; no candidate outlives its epoch.
	proms, demos []cand
}

// cand is one relocation candidate, tagged with its range's hotness for
// the hysteresis check and its range start for the retry budget.
type cand struct {
	gvpn       uint64
	freq       float64
	rangeStart uint64
}

type retryEntry struct {
	gvpn       uint64
	rangeStart uint64
	attempts   int
	dueEpoch   uint64
}

// New returns a detached Demeter policy.
func New(cfg Config) *Demeter { return &Demeter{Cfg: cfg} }

// Name identifies the policy in harness output.
func (d *Demeter) Name() string { return "demeter" }

// Stats returns a copy of the counters.
func (d *Demeter) Stats() Stats { return d.stats }

// Tree exposes the classifier for diagnostics and tests.
func (d *Demeter) Tree() *RangeTree { return d.tree }

// Attach arms EPT-friendly PEBS on the VM, builds the range tree over the
// process's heap and mmap areas, hooks sample draining into the guest
// scheduler and starts the epoch worker. The workload must have Setup its
// regions already (Demeter reads the VMA layout at attach time).
func (d *Demeter) Attach(eng *sim.Engine, vm *hypervisor.VM) error {
	if d.active {
		return fmt.Errorf("core: %s attached twice", d.Name())
	}
	pcfg := pebs.ConfigWithPeriod(d.Cfg.SamplePeriod)
	pcfg.LatencyThreshold = d.Cfg.LatencyThreshold
	pcfg.Event = d.Cfg.Event
	pcfg.AdaptivePeriod = adaptiveSampling
	unit, err := pebs.NewUnit(pcfg)
	if err != nil {
		return fmt.Errorf("core: bad PEBS config: %w", err)
	}
	if err := unit.Arm(); err != nil {
		return fmt.Errorf("core: PEBS arm failed: %w", err)
	}
	d.eng, d.vm, d.active = eng, vm, true

	// A (re-)attach is a fresh agent instance: any prior crash or stall
	// is gone, and retry state pointing at the old tree is stale.
	d.crashed, d.restartAt, d.stalledUntil = false, 0, 0
	d.retryQ = nil
	if d.ch != nil {
		// Drops counted by the discarded channel must survive into the
		// monotonic per-VM metric.
		d.prevDropped += d.ch.Dropped()
	}

	d.unit = unit
	vm.WirePEBS(unit)

	d.ch = NewSampleChannel(channelCapacity)
	d.tree = NewRangeTree(d.Cfg.Params, d.trackedRegions()...)
	d.rangeRetries = make(map[uint64]int)

	// Buffer overshoots raise PMIs whose handler drains immediately; the
	// fixed low sample frequency keeps these rare (§3.2.2). A crashed or
	// stalled agent leaves PMIs unserviced — samples rot in the unit
	// buffer and overflow there instead.
	unit.OnPMI = func() {
		if d.agentDown() {
			return
		}
		vm.ChargeGuest(hypervisor.CompTrack, hypervisor.PMICost)
		d.drain()
	}

	if d.Cfg.DrainAtContextSwitch {
		if !d.hookInstalled {
			d.hookInstalled = true
			vm.Kernel.RegisterContextSwitchHook(func() {
				if d.active && !d.agentDown() {
					d.drain()
				}
			})
		}
	} else {
		// Ablation: dedicated polling thread, continuously burning CPU
		// like HeMem's collection threads.
		d.poll = eng.StartTicker(d.Cfg.PollPeriod, func(sim.Time) {
			if !d.active || d.agentDown() {
				return
			}
			vm.ChargeGuest(hypervisor.CompTrack, d.Cfg.PollPeriod/20) // 5% of a core
			d.drain()
		})
	}

	d.ticker = eng.StartTicker(d.Cfg.EpochPeriod, func(sim.Time) {
		if d.active {
			d.epoch()
		}
	})

	d.installObs()
	return nil
}

// installObs publishes the delegation sample-loss counter once per
// Demeter instance. Snapshot-hook only — the push path stays untouched.
func (d *Demeter) installObs() {
	o := d.vm.Machine.Obs
	if o == nil || d.obsInstalled {
		return
	}
	d.obsInstalled = true
	vmLabel := fmt.Sprintf("%d", d.vm.ID)
	o.Reg.OnSnapshot(func(r *obs.Registry) {
		r.Counter("delegation_samples_dropped", "vm", vmLabel).Set(d.ChannelDropped())
	})
}

// Detach stops all activity.
func (d *Demeter) Detach() {
	if !d.active {
		return
	}
	d.active = false
	d.ticker.Stop()
	if d.poll != nil {
		d.poll.Stop()
	}
	d.unit.Disarm()
}

// Active reports whether the policy is currently attached.
func (d *Demeter) Active() bool { return d.active }

// agentDown reports whether the guest agent is crashed or mid-stall.
func (d *Demeter) agentDown() bool {
	return d.crashed || d.eng.Now() < d.stalledUntil
}

// AgentAlive reports whether the delegation agent is currently running.
// The health monitor never reads this directly — it infers liveness from
// heartbeats, as a real host must — but tests and reports may.
func (d *Demeter) AgentAlive() bool { return d.active && !d.agentDown() }

// ProbeAgent is the host's recovery probe: it reports whether the guest
// agent could serve delegation again at time now. A crashed agent
// restarts only once its restart latency has elapsed; a stalled agent
// recovers when the stall expires. The probe itself has no side effects
// — the actual restart is the monitor's re-Attach.
func (d *Demeter) ProbeAgent(now sim.Time) bool {
	if d.crashed {
		return now >= d.restartAt
	}
	return now >= d.stalledUntil
}

// ChannelDropped returns the total delegation samples dropped on a full
// channel across this VM's lifetime, including channels discarded by
// degraded-mode re-attachment.
func (d *Demeter) ChannelDropped() uint64 {
	n := d.prevDropped
	if d.ch != nil {
		n += d.ch.Dropped()
	}
	return n
}

// Reconcile re-arms a freshly re-attached classifier after a degraded
// window: pre-handback samples buffered in the PEBS unit are discarded
// (they predate the fallback TMM's relocations and must not skew the
// rebuilt tree), and every tracked page currently resident in FMEM is
// recorded once so the tree starts from the placement the fallback
// produced instead of cold-starting and churning it. The scan is charged
// to the guest classify ledger like any other PTE walk.
func (d *Demeter) Reconcile() {
	if !d.active {
		return
	}
	d.unit.Drain()
	d.ch.Unwedge()
	d.ch.Drain(func(pebs.Sample) {})
	gpt := d.vm.Proc.GPT
	kernel := d.vm.Kernel
	visited := 0
	for _, r := range d.trackedRegions() {
		visited += gpt.ScanRange(r.StartPage, r.EndPage, func(gvpn uint64, e *pagetable.Entry) bool {
			if kernel.NodeOfGPFN(mem.Frame(e.Value())) == 0 {
				d.tree.Record(gvpn)
			}
			return true
		})
	}
	d.vm.ChargeGuest(hypervisor.CompClassify, sim.Duration(visited)*hypervisor.PTEOpCost)
}

// trackedRegions converts the process VMAs to page ranges, excluding
// nothing because the modelled process has only heap and mmap areas (the
// real system skips code/data/stack, §3.2.1).
func (d *Demeter) trackedRegions() []Region {
	var rs []Region
	for _, r := range d.vm.Proc.Regions() {
		rs = append(rs, Region{StartPage: r.Start >> 12, EndPage: (r.End + 4095) >> 12})
	}
	return rs
}

// drain moves PEBS samples into the sample channel. Each sample costs only
// a copy — no page-table walk, because the gVA is directly what the
// classifier wants (§3.2.2).
func (d *Demeter) drain() {
	samples := d.unit.Drain()
	if len(samples) == 0 {
		return
	}
	cost := sim.Duration(len(samples)) * hypervisor.SampleHandleCost
	if d.Cfg.TranslateSamples {
		cost += sim.Duration(len(samples)) * hypervisor.TranslateCost
	}
	d.vm.ChargeGuest(hypervisor.CompTrack, cost)
	for _, s := range samples {
		d.ch.Push(s)
		d.stats.Samples++
	}
}

// epoch consumes the channel, advances the classifier and relocates. A
// crashed or stalled agent skips the whole body — no classification, no
// relocation, and crucially no OnEpoch heartbeat.
func (d *Demeter) epoch() {
	inj := d.vm.Machine.Fault
	if d.crashed {
		return
	}
	if fired, magn := inj.FireMagnitude(FaultAgentCrash); fired {
		d.crashed = true
		d.restartAt = d.eng.Now() + sim.Duration(magn)*d.Cfg.EpochPeriod
		return
	}
	if fired, magn := inj.FireMagnitude(FaultAgentStall); fired {
		if until := d.eng.Now() + sim.Duration(magn)*d.Cfg.EpochPeriod; until > d.stalledUntil {
			d.stalledUntil = until
		}
	}
	if d.eng.Now() < d.stalledUntil {
		return
	}
	if inj.Fire(FaultChannelWedge) {
		d.ch.Wedge()
	}
	n := d.ch.Drain(func(s pebs.Sample) { d.tree.Record(s.GVPN) })
	d.vm.ChargeGuest(hypervisor.CompClassify, sim.Duration(n)*hypervisor.PTEOpCost)
	d.tree.EndEpoch(d.vm.VCPUs)
	// Tree maintenance is proportional to the (small) leaf count.
	d.vm.ChargeGuest(hypervisor.CompClassify, sim.Duration(d.tree.Leaves())*hypervisor.PTEOpCost)
	d.stats.Epochs++
	// Range retry budgets decay so a once-troubled range earns back
	// headroom instead of being barred forever.
	for rs, n := range d.rangeRetries {
		if n /= 2; n == 0 {
			delete(d.rangeRetries, rs)
		} else {
			d.rangeRetries[rs] = n
		}
	}
	d.processRetries()
	d.relocate()
	if d.OnEpoch != nil {
		d.OnEpoch(d.eng.Now())
	}
}

// requeue schedules a transiently failed candidate for a later epoch with
// capped exponential backoff, or abandons it when either the page or its
// range has exhausted its retry budget.
func (d *Demeter) requeue(gvpn, rangeStart uint64, attempts int) {
	if attempts >= maxPageRetries || d.rangeRetries[rangeStart] >= rangeRetryBudget {
		d.stats.Abandoned++
		return
	}
	d.rangeRetries[rangeStart]++
	backoff := 1
	for i := 0; i < attempts && backoff < retryBackoffCap; i++ {
		backoff *= 2
	}
	if backoff > retryBackoffCap {
		backoff = retryBackoffCap
	}
	d.retryQ = append(d.retryQ, retryEntry{
		gvpn:       gvpn,
		rangeStart: rangeStart,
		attempts:   attempts + 1,
		dueEpoch:   d.stats.Epochs + uint64(backoff),
	})
}

// retryRefused handles the two transient relocation refusals: a busy page
// or a rolled-back copy is counted and its candidate requeued with the
// given attempt count. It reports whether err was one of them; every
// other outcome is the caller's to handle.
func (d *Demeter) retryRefused(err error, gvpn, rangeStart uint64, attempts int) bool {
	switch err {
	case hypervisor.ErrPageBusy:
		d.stats.Busy++
	case hypervisor.ErrCopyFault:
		d.stats.Rollbacks++
	default:
		return false
	}
	d.requeue(gvpn, rangeStart, attempts)
	return true
}

// processRetries re-attempts due entries from the retry queue as plain
// promotions into FMEM. Entries not yet due stay queued; permanent
// failures are dropped; transient ones go back with increased backoff.
func (d *Demeter) processRetries() {
	if len(d.retryQ) == 0 {
		return
	}
	var keep []retryEntry
	var cost sim.Duration
	for _, e := range d.retryQ {
		if e.dueEpoch > d.stats.Epochs {
			keep = append(keep, e)
			continue
		}
		d.stats.Retries++
		c, err := d.vm.MigrateGuestPage(e.gvpn, 0)
		cost += c
		if d.retryRefused(err, e.gvpn, e.rangeStart, e.attempts) {
			continue
		}
		switch err {
		case nil:
			d.stats.Promoted++
			d.stats.RetriedOK++
		case hypervisor.ErrAlreadyPlaced, hypervisor.ErrNotMapped:
			// Already fixed or gone; nothing left to do.
		default: // ErrNoFrame and anything equally transient
			d.requeue(e.gvpn, e.rangeStart, e.attempts)
		}
	}
	d.retryQ = keep
	d.vm.ChargeGuest(hypervisor.CompMigrate, cost)
}

// fmemCapacity returns the guest FMEM frames usable by workloads (node
// size minus balloon-held pages).
func (d *Demeter) fmemCapacity() uint64 {
	node := d.vm.Kernel.Topo.Nodes[0]
	held := d.vm.Kernel.BalloonedOn(0)
	if held >= node.Frames() {
		return 0
	}
	return node.Frames() - held
}

// relocate implements §3.2.3: determine the hot cut [0, f), collect
// promotion candidates misplaced in SMEM, collect exactly as many demotion
// candidates from the coldest ranges, and swap them pairwise.
func (d *Demeter) relocate() {
	ranked := d.tree.ranked()
	fmemCap := d.fmemCapacity()

	// ❶ Find the largest prefix of hot ranges fitting FMEM.
	var cum uint64
	f := 0
	for _, r := range ranked {
		if cum+r.Pages() > fmemCap {
			break
		}
		cum += r.Pages()
		f++
	}
	if f == 0 {
		return
	}

	gpt := d.vm.Proc.GPT
	kernel := d.vm.Kernel
	var scanCost sim.Duration

	// ❷ Promotion candidates: hot-range pages resident in SMEM.
	proms := d.proms[:0]
	for i := 0; i < f && len(proms) < d.Cfg.MigrationBatch; i++ {
		r := ranked[i]
		if r.Count < minHotSamples {
			continue // sampling noise, not evidence of heat
		}
		visited := gpt.ScanRange(r.StartPage, r.EndPage, func(gvpn uint64, e *pagetable.Entry) bool {
			if kernel.NodeOfGPFN(mem.Frame(e.Value())) != 0 {
				proms = append(proms, cand{gvpn, r.Freq, r.StartPage})
			}
			return len(proms) < d.Cfg.MigrationBatch
		})
		scanCost += sim.Duration(visited) * hypervisor.PTEOpCost
	}
	d.proms = proms
	if len(proms) == 0 {
		d.vm.ChargeGuest(hypervisor.CompMigrate, scanCost)
		return
	}

	// Promotions into free FMEM need no demotion partner. Transient
	// failures requeue the page for a later epoch. The loop ends when
	// free reaches 0 (the rest pair with demotions below), so the
	// allocation on node 0 never runs out of frames.
	var migrateCost sim.Duration
	free := kernel.Topo.Nodes[0].FreeFrames()
	idx := 0
	for ; idx < len(proms) && free > 0; idx++ {
		c := proms[idx]
		cost, err := d.vm.MigrateGuestPage(c.gvpn, 0)
		migrateCost += cost
		if d.retryRefused(err, c.gvpn, c.rangeStart, 0) {
			continue
		}
		switch err {
		case nil:
			free--
			d.stats.Promoted++
			d.stats.FreePromotes++
		case hypervisor.ErrAlreadyPlaced, hypervisor.ErrNotMapped:
			// Stale candidate; skip silently.
		default:
			panic(fmt.Sprintf("core: free promotion failed: %v", err))
		}
	}
	proms = proms[idx:]

	// ❸ Demotion candidates: coldest-range pages resident in FMEM,
	// exactly len(proms) of them, scanned in reverse rank order.
	demos := d.demos[:0]
	for i := len(ranked) - 1; i >= f && len(demos) < len(proms); i-- {
		r := ranked[i]
		visited := gpt.ScanRange(r.StartPage, r.EndPage, func(gvpn uint64, e *pagetable.Entry) bool {
			if kernel.NodeOfGPFN(mem.Frame(e.Value())) == 0 {
				demos = append(demos, cand{gvpn, r.Freq, r.StartPage})
			}
			return len(demos) < len(proms)
		})
		scanCost += sim.Duration(visited) * hypervisor.PTEOpCost
	}
	d.demos = demos

	// ❸ Batched balanced swapping, one-to-one.
	pairs := len(proms)
	if len(demos) < pairs {
		pairs = len(demos)
	}
	for k := 0; k < pairs; k++ {
		// Swapping equal-temperature pages is pure churn: require the
		// promotion side to be clearly hotter.
		if proms[k].freq < demos[k].freq*hysteresisRatio+1e-9 {
			break
		}
		if d.Cfg.SequentialRelocation {
			// Ablation: demote into SMEM first (paying direct reclaim on
			// the pressured fast node), then promote into the freed slot.
			dCost, dErr := d.vm.MigrateGuestPage(demos[k].gvpn, 1)
			migrateCost += dCost
			if dErr != nil {
				continue
			}
			migrateCost += hypervisor.GuestFaultCost // reclaim penalty
			pCost, pErr := d.vm.MigrateGuestPage(proms[k].gvpn, 0)
			migrateCost += pCost
			if pErr == nil {
				d.stats.Promoted++
			}
			d.stats.Demoted++
			continue
		}
		cost, err := d.vm.SwapGuestPages(proms[k].gvpn, demos[k].gvpn)
		migrateCost += cost
		// A busy refusal or a rolled-back copy leaves both pages on their
		// original frames and translations (verified by the chaos
		// invariants). Requeue the promotion side; the demotion partner
		// stays cold and will be rediscovered.
		if d.retryRefused(err, proms[k].gvpn, proms[k].rangeStart, 0) {
			continue
		}
		switch err {
		case nil:
			d.stats.Promoted++
			d.stats.Demoted++
			d.stats.SwapPairs++
		default:
			if errors.Is(err, hypervisor.ErrNotMapped) {
				continue // candidate unmapped since the scan; stale, skip
			}
			panic(fmt.Sprintf("core: balanced swap failed: %v", err))
		}
	}
	d.vm.ChargeGuest(hypervisor.CompMigrate, scanCost+migrateCost)
}
