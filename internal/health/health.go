// Package health monitors the delegation path between the host and each
// VM's guest tiering agent, and fails tiering over to the host when the
// guest stops cooperating. Demeter's whole design delegates hotness
// classification and relocation to an agent inside the guest — which
// makes that agent a single point of failure the paper never stresses: a
// crashed, stalled, or lying delegate silently freezes tiering for its
// VM while the host keeps believing everything is fine.
//
// The monitor runs a per-VM state machine:
//
//	HEALTHY → SUSPECT → DEGRADED → RECOVERING → HEALTHY
//
// driven entirely by simulated-time signals a real host could observe
// without trusting the guest:
//
//   - missed epoch heartbeats (core.Demeter.OnEpoch stops firing),
//   - sustained sample drop rate on the delegation channel
//     (core.SampleChannel fills and drops, e.g. a wedged consumer),
//   - balloon watchdog expiry streaks (balloon Timeouts climbing every
//     window: the guest driver has stopped answering),
//   - stale or implausible guest telemetry (MemStats.When stagnating
//     while the workload demonstrably runs, or reports that exceed the
//     guest's physical capacity).
//
// Hysteresis (consecutive-window thresholds on both entry and exit)
// keeps transient stalls from flapping the machine. On DEGRADED the
// monitor detaches the wedged core.Demeter delegate and attaches a
// host-side fallback (tmm.VTMM's A-bit scan loop — the hypervisor-only
// design the paper argues against, and the only thing a host can run
// without guest cooperation), then probes for agent recovery with
// exponential backoff. A successful probe hands tiering back: the
// delegate is re-attached fresh, stale samples are discarded, and the
// range tree is reconciled from current tier residency before the
// machine passes through RECOVERING back to HEALTHY.
//
// Everything is deterministic: checks and probes run on the simulated
// clock, every transition is journaled, and all counters publish through
// obs snapshot hooks so the access hot path is untouched.
package health

import (
	"fmt"

	"demeter/internal/balloon"
	"demeter/internal/core"
	"demeter/internal/engine"
	"demeter/internal/hypervisor"
	"demeter/internal/obs"
	"demeter/internal/sim"
	"demeter/internal/tmm"
)

// State is one delegation-health state.
type State uint8

// The failover state machine.
const (
	// Healthy: heartbeats arrive, signals clean, guest delegation runs.
	Healthy State = iota
	// Suspect: unhealthy signals observed, not yet past the degrade
	// hysteresis; delegation still runs.
	Suspect
	// Degraded: delegation declared dead. The delegate is detached and,
	// with failover enabled, a host-side fallback TMM tiers instead.
	Degraded
	// Recovering: a probe succeeded and delegation was handed back; the
	// monitor watches the fresh delegate before declaring it healthy.
	Recovering
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Degraded:
		return "degraded"
	case Recovering:
		return "recovering"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Signal bits recorded in EvHealthTransition.Arg1: which observations
// drove the transition.
const (
	SignalHeartbeat uint64 = 1 << iota // no epoch heartbeat this window
	SignalDrops                        // channel drop rate above limit
	SignalBalloon                      // watchdog expiry streak
	SignalTelemetry                    // stale or implausible guest stats
)

// Config tunes one monitor. All periods are simulated time.
type Config struct {
	// CheckPeriod is the evaluation cadence. A window with no heartbeat
	// counts as a missed beat, so it must be at least one epoch.
	CheckPeriod sim.Duration
	// Failover enables the host-side fallback TMM on DEGRADED. When
	// false the monitor detects, journals and detaches, but tiering
	// stays frozen — the baseline the degraded experiment compares
	// against.
	Failover bool
	// Fallback configures the host-side VTMM attached on failover. Its
	// cadence should follow the run's scaled periods. The fallback is
	// deliberately the hypervisor-only baseline the paper argues
	// against: it is the only thing a host can run without trusting the
	// guest.
	Fallback tmm.ScanConfig
}

// Fixed thresholds, the same for every monitor. Together the streaks
// degrade a monitor after three consecutive bad windows.
const (
	// suspectAfter is how many consecutive unhealthy checks move
	// HEALTHY → SUSPECT.
	suspectAfter = 1
	// degradeAfter is how many further consecutive unhealthy checks move
	// SUSPECT → DEGRADED.
	degradeAfter = 2
	// calmAfter is how many consecutive clean checks move SUSPECT back
	// to HEALTHY (the flap damper for transient stalls).
	calmAfter = 2
	// recoverAfter is how many consecutive clean checks move
	// RECOVERING → HEALTHY after a handback.
	recoverAfter = 2
	// dropRateLimit is the per-window delegation sample drop fraction
	// above which the channel counts as unhealthy.
	dropRateLimit = 0.5
	// timeoutStreakLimit is how many consecutive windows with fresh
	// balloon watchdog expiries count as a wedged guest driver.
	timeoutStreakLimit = 3
	// staleChecks bounds guest telemetry age in check periods: a report
	// older than this, while the workload demonstrably progresses, is a
	// staleness signal.
	staleChecks = 4
	// probeBackoffChecks caps the recovery probe backoff while DEGRADED,
	// in check periods; the first probe waits one check period.
	probeBackoffChecks = 16
)

// Stats counts one monitor's activity.
type Stats struct {
	Checks      uint64 // evaluation windows run
	MissedBeats uint64 // windows without an epoch heartbeat
	DropWindows uint64 // windows over the drop-rate limit
	BadBalloon  uint64 // windows with fresh watchdog expiries
	BadStats    uint64 // windows with stale/implausible telemetry

	Transitions  uint64 // state changes journaled
	Suspects     uint64 // entries into SUSPECT
	Degradations uint64 // entries into DEGRADED
	Failovers    uint64 // fallback TMM attachments
	Probes       uint64 // recovery probes sent
	FailedProbes uint64 // probes the agent did not answer
	Handbacks    uint64 // delegations handed back (RECOVERING entered)
	Recoveries   uint64 // RECOVERING → HEALTHY completions
	Relapses     uint64 // RECOVERING → DEGRADED regressions
}

// Monitor watches one VM's delegation path. Create with NewMonitor, wire
// optional signal sources, then Start; Stop before tearing the engine
// down (probe timers self-reschedule while DEGRADED).
type Monitor struct {
	Cfg Config

	eng      *sim.Engine
	vm       *hypervisor.VM
	delegate *core.Demeter
	double   *balloon.Double
	exec     *engine.Executor
	// statsFn indirection over double.LatestStats lets tests feed
	// implausible telemetry without a full balloon stack.
	statsFn func() (balloon.MemStats, bool)

	ticker  *sim.Ticker
	running bool

	state         State
	lastBeat      sim.Time
	badStreak     int
	calmStreak    int
	recoverStreak int
	probeAttempt  int
	degradedAt    sim.Time
	degradedTotal sim.Duration

	// Per-window baselines.
	lastSamples   uint64
	lastDropped   uint64
	lastTimeouts  uint64
	timeoutStreak int
	lastActivity  sim.Time

	fallback *tmm.VTMM
	stats    Stats

	// Teardown snapshot for AuditErr.
	stopped        bool
	finalState     State
	delegateLiveAt bool
}

// NewMonitor builds a monitor for one delegate. double may be nil (no
// balloon/telemetry signals).
func NewMonitor(cfg Config, delegate *core.Demeter, double *balloon.Double) *Monitor {
	m := &Monitor{Cfg: cfg, delegate: delegate, double: double}
	if double != nil {
		m.statsFn = double.LatestStats
	}
	return m
}

// AttachExecutor gives the monitor a workload progress stamp, enabling
// the stale-telemetry signal (stale only counts while the VM runs).
func (m *Monitor) AttachExecutor(x *engine.Executor) { m.exec = x }

// SetStatsSource overrides the guest telemetry source (tests).
func (m *Monitor) SetStatsSource(fn func() (balloon.MemStats, bool)) { m.statsFn = fn }

// State returns the current state.
func (m *Monitor) State() State { return m.state }

// Stats returns a copy of the counters.
func (m *Monitor) Stats() Stats { return m.stats }

// DegradedTime returns total simulated time spent DEGRADED, including a
// still-open degraded window.
func (m *Monitor) DegradedTime() sim.Duration {
	d := m.degradedTotal
	if m.state == Degraded && m.running {
		d += m.eng.Now() - m.degradedAt
	}
	return d
}

// Start begins monitoring. The delegate must already be attached to vm.
func (m *Monitor) Start(eng *sim.Engine, vm *hypervisor.VM) {
	if m.running {
		panic("health: monitor started twice")
	}
	m.eng, m.vm, m.running = eng, vm, true
	m.state = Healthy
	m.lastBeat = eng.Now()
	m.delegate.OnEpoch = func(now sim.Time) { m.lastBeat = now }
	st := m.delegate.Stats()
	m.lastSamples, m.lastDropped = st.Samples, m.delegate.ChannelDropped()
	m.ticker = eng.StartTicker(m.Cfg.CheckPeriod, func(now sim.Time) {
		if m.running {
			m.check(now)
		}
	})
	if o := vm.Machine.Obs; o != nil {
		vmLabel := fmt.Sprintf("%d", vm.ID)
		o.Reg.OnSnapshot(func(r *obs.Registry) {
			st := m.stats
			r.Gauge("health_state", "vm", vmLabel).Set(float64(m.state))
			r.Counter("health_checks", "vm", vmLabel).Set(st.Checks)
			r.Counter("health_missed_beats", "vm", vmLabel).Set(st.MissedBeats)
			r.Counter("health_transitions", "vm", vmLabel).Set(st.Transitions)
			r.Counter("health_degradations", "vm", vmLabel).Set(st.Degradations)
			r.Counter("health_failovers", "vm", vmLabel).Set(st.Failovers)
			r.Counter("health_probes", "vm", vmLabel).Set(st.Probes)
			r.Counter("health_handbacks", "vm", vmLabel).Set(st.Handbacks)
			r.Gauge("health_degraded_seconds", "vm", vmLabel).Set(m.DegradedTime().Seconds())
		})
	}
}

// Stop ends monitoring: the check ticker stops, pending probe timers
// become no-ops, and a live fallback is detached. The delegate is left
// in whatever attachment state it is in — teardown's policy Detach is
// idempotent either way.
func (m *Monitor) Stop() {
	if !m.running {
		return
	}
	if m.state == Degraded {
		m.degradedTotal += m.eng.Now() - m.degradedAt
	}
	m.finalState = m.state
	m.delegateLiveAt = m.delegate.Active()
	m.running = false
	m.stopped = true
	m.ticker.Stop()
	if m.fallback != nil {
		m.fallback.Detach()
		m.fallback = nil
	}
	m.delegate.OnEpoch = nil
}

// check is one evaluation window.
func (m *Monitor) check(now sim.Time) {
	m.stats.Checks++
	switch m.state {
	case Healthy:
		if signals := m.evaluate(now); signals != 0 {
			m.badStreak++
			if m.badStreak >= suspectAfter {
				m.stats.Suspects++
				m.transition(Suspect, signals)
				m.badStreak = 0
			}
		} else {
			m.badStreak = 0
		}
	case Suspect:
		if signals := m.evaluate(now); signals != 0 {
			m.calmStreak = 0
			m.badStreak++
			if m.badStreak >= degradeAfter {
				m.degrade(signals)
			}
		} else {
			m.badStreak = 0
			m.calmStreak++
			if m.calmStreak >= calmAfter {
				m.calmStreak = 0
				m.transition(Healthy, 0)
			}
		}
	case Degraded:
		// Nothing per-window: the delegate is detached, so its signals
		// are meaningless. Probes (scheduled with backoff) decide when
		// to leave.
	case Recovering:
		if signals := m.evaluate(now); signals != 0 {
			m.stats.Relapses++
			m.degrade(signals)
		} else {
			m.recoverStreak++
			if m.recoverStreak >= recoverAfter {
				m.stats.Recoveries++
				m.transition(Healthy, 0)
			}
		}
	}
}

// evaluate inspects one window's signals and advances the baselines. It
// returns the set of unhealthy Signal bits observed.
func (m *Monitor) evaluate(now sim.Time) uint64 {
	var signals uint64

	// ❶ Heartbeat: the delegate must have completed an epoch within the
	// window (CheckPeriod ≥ one epoch by construction).
	if now-m.lastBeat > m.Cfg.CheckPeriod {
		signals |= SignalHeartbeat
		m.stats.MissedBeats++
	}

	// ❷ Channel drop rate over this window's push attempts.
	st := m.delegate.Stats()
	dropped := m.delegate.ChannelDropped()
	attempts := st.Samples - m.lastSamples
	if d := dropped - m.lastDropped; attempts > 0 &&
		float64(d)/float64(attempts) > dropRateLimit {
		signals |= SignalDrops
		m.stats.DropWindows++
	}
	m.lastSamples, m.lastDropped = st.Samples, dropped

	// ❸ Balloon watchdog expiry streak: every window bringing fresh
	// timeouts means the guest driver keeps blowing its deadlines.
	if m.double != nil {
		t := m.double.FMEM.Timeouts + m.double.SMEM.Timeouts
		if t > m.lastTimeouts {
			m.timeoutStreak++
			m.stats.BadBalloon++
		} else {
			m.timeoutStreak = 0
		}
		m.lastTimeouts = t
		if m.timeoutStreak >= timeoutStreakLimit {
			signals |= SignalBalloon
		}
	}

	// ❹ Guest telemetry: stale (only while the workload demonstrably
	// progresses — an idle VM legitimately publishes nothing new) or
	// physically implausible.
	progressed := true
	if m.exec != nil {
		act := m.exec.LastActivity()
		progressed = act > m.lastActivity
		m.lastActivity = act
	}
	if m.statsFn != nil {
		if ms, ok := m.statsFn(); ok {
			stale := progressed && now-ms.When > staleChecks*m.Cfg.CheckPeriod
			if stale || m.implausible(ms) {
				signals |= SignalTelemetry
				m.stats.BadStats++
			}
		}
	}
	return signals
}

// implausible rejects telemetry no honest guest could report: balloon
// plus free pages beyond a node's physical size, or a slow share outside
// [0, 1].
func (m *Monitor) implausible(ms balloon.MemStats) bool {
	if ms.SlowShare < 0 || ms.SlowShare > 1 {
		return true
	}
	nodes := m.vm.Kernel.Topo.Nodes
	return ms.FreeFMEM+ms.BalloonFMEM > nodes[0].Frames() ||
		ms.FreeSMEM+ms.BalloonSMEM > nodes[1].Frames()
}

// degrade enters DEGRADED: detach the wedged delegate, attach the
// fallback (when failover is on) and start probing.
func (m *Monitor) degrade(signals uint64) {
	m.stats.Degradations++
	m.transition(Degraded, signals)
	m.badStreak, m.calmStreak, m.recoverStreak = 0, 0, 0
	m.degradedAt = m.eng.Now()
	// The host stops trusting the delegate outright: no half-dead agent
	// gets to keep relocating pages.
	m.delegate.Detach()
	if m.Cfg.Failover && m.fallback == nil {
		m.stats.Failovers++
		f := tmm.NewVTMM(m.Cfg.Fallback)
		f.Attach(m.eng, m.vm)
		m.fallback = f
	}
	m.probeAttempt = 0
	m.scheduleProbe()
}

// scheduleProbe arms the next recovery probe with exponential backoff.
func (m *Monitor) scheduleProbe() {
	backoff := sim.Backoff{Base: m.Cfg.CheckPeriod, Max: probeBackoffChecks * m.Cfg.CheckPeriod}
	delay := backoff.Delay(m.probeAttempt)
	m.eng.After(delay, func() {
		if !m.running || m.state != Degraded {
			return
		}
		m.probe()
	})
}

// probe asks the agent whether it can serve again; success hands back.
func (m *Monitor) probe() {
	now := m.eng.Now()
	m.stats.Probes++
	if !m.delegate.ProbeAgent(now) {
		m.stats.FailedProbes++
		m.vm.JournalEvent(obs.EvHealthProbe, "probe-fail", uint64(m.probeAttempt), 0)
		m.probeAttempt++
		m.scheduleProbe()
		return
	}
	m.vm.JournalEvent(obs.EvHealthProbe, "probe-ok", uint64(m.probeAttempt), 0)
	m.handback(now)
}

// handback returns tiering to the guest: close the degraded window,
// detach the fallback, re-attach the delegate fresh and reconcile its
// classifier from the tier residency the fallback produced.
func (m *Monitor) handback(now sim.Time) {
	m.degradedTotal += now - m.degradedAt
	if m.fallback != nil {
		m.fallback.Detach()
		m.fallback = nil
	}
	m.delegate.Attach(m.eng, m.vm)
	m.delegate.Reconcile()
	m.stats.Handbacks++
	m.recoverStreak = 0
	// Fresh delegate, fresh baselines: pre-handback drops and samples
	// must not count against the recovering agent.
	st := m.delegate.Stats()
	m.lastSamples, m.lastDropped = st.Samples, m.delegate.ChannelDropped()
	m.lastBeat = now
	m.timeoutStreak = 0
	m.transition(Recovering, 0)
}

// transition journals and applies a state change.
func (m *Monitor) transition(to State, signals uint64) {
	from := m.state
	if from == to {
		return
	}
	m.state = to
	m.stats.Transitions++
	m.vm.JournalEvent(obs.EvHealthTransition, to.note(), signals, uint64(from))
}

// note returns the static journal string for a state (Event.Note must
// never be computed per append).
func (s State) note() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Degraded:
		return "degraded"
	case Recovering:
		return "recovering"
	default:
		return "unknown"
	}
}

// AuditErr cross-checks the monitor's accounting after Stop; the chaos
// invariant battery runs it per VM. Every degradation must either have
// handed back or still be open at teardown, probes must dominate
// handbacks, and a non-degraded end state requires a live delegate.
func (m *Monitor) AuditErr() error {
	if !m.stopped {
		return fmt.Errorf("health: audit before Stop")
	}
	st := m.stats
	open := uint64(0)
	if m.finalState == Degraded {
		open = 1
	}
	if st.Degradations != st.Handbacks+open {
		return fmt.Errorf("health: %d degradation(s) vs %d handback(s) with %d still open",
			st.Degradations, st.Handbacks, open)
	}
	if st.Handbacks > st.Probes {
		return fmt.Errorf("health: %d handback(s) exceed %d probe(s)", st.Handbacks, st.Probes)
	}
	if st.FailedProbes > st.Probes {
		return fmt.Errorf("health: %d failed probe(s) exceed %d probe(s)", st.FailedProbes, st.Probes)
	}
	if st.Recoveries+st.Relapses > st.Handbacks {
		return fmt.Errorf("health: %d recovery outcome(s) exceed %d handback(s)",
			st.Recoveries+st.Relapses, st.Handbacks)
	}
	if m.finalState != Degraded && !m.delegateLiveAt {
		return fmt.Errorf("health: stopped %s but the delegate was detached", m.finalState)
	}
	if m.finalState == Degraded && m.delegateLiveAt {
		return fmt.Errorf("health: stopped degraded with the delegate still attached")
	}
	return nil
}
