package health_test

import (
	"testing"

	"demeter/internal/balloon"
	"demeter/internal/core"
	"demeter/internal/fault"
	"demeter/internal/health"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/obs"
	"demeter/internal/sim"
	"demeter/internal/tmm"
	"demeter/internal/workload"
)

const epoch = sim.Millisecond

// newStack builds the minimal delegation stack a monitor watches: one
// machine with an injector and journal, one VM with a GUPS footprint so
// the range tree has regions, and an attached Demeter delegate ticking
// 1 ms epochs.
func newStack(t *testing.T, inj *fault.Injector) (*sim.Engine, *hypervisor.VM, *core.Demeter, *obs.Obs) {
	t.Helper()
	eng := sim.NewEngine()
	m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(2048, 8192))
	m.Fault = inj
	o := obs.New(0)
	m.AttachObs(o)
	vm, err := m.NewVM(hypervisor.VMConfig{
		VCPUs: 4, GuestFMEM: 1500, GuestSMEM: 6000,
		FMEMBacking: 0, SMEMBacking: 1,
	})
	if err != nil {
		t.Fatalf("NewVM: %v", err)
	}
	wl := workload.Must(workload.NewGUPS(1024, 1, 1))
	wl.Setup(vm.Proc)
	cfg := core.DefaultConfig()
	cfg.EpochPeriod = epoch
	d := core.New(cfg)
	d.Attach(eng, vm)
	return eng, vm, d, o
}

// testConfig returns a tight monitor config over 1 ms epochs.
func testConfig() health.Config {
	return health.Config{
		CheckPeriod: 2 * epoch,
		Failover:    true,
		Fallback:    tmm.ScanConfig{ScanPeriod: 2 * epoch, ScanBatchPages: 4096, MigrationBatch: 512},
	}
}

// transitionNotes extracts the health transition sequence from the journal.
func transitionNotes(o *obs.Obs) []string {
	var notes []string
	for _, e := range o.Journal.Events() {
		if e.Type == obs.EvHealthTransition {
			notes = append(notes, e.Note)
		}
	}
	return notes
}

// TestCrashFailoverAndHandback walks the full state machine: a crashed
// agent stops heartbeating, the monitor degrades and fails over to the
// host-side VTMM, and once the agent can restart a probe hands tiering
// back through RECOVERING to HEALTHY.
func TestCrashFailoverAndHandback(t *testing.T) {
	inj := fault.NewInjector(1)
	inj.ArmMagnitude(core.FaultAgentCrash, 1, 8) // crash at first epoch, restartable 8 epochs later
	eng, vm, d, o := newStack(t, inj)

	mon := health.NewMonitor(testConfig(), d, nil)
	mon.Start(eng, vm)

	eng.Run(9 * epoch)
	if got := mon.State(); got != health.Degraded {
		t.Fatalf("state after crash = %v, want degraded", got)
	}
	if st := mon.Stats(); st.Failovers != 1 || st.Degradations != 1 {
		t.Fatalf("failovers/degradations = %d/%d, want 1/1", st.Failovers, st.Degradations)
	}
	if d.Active() {
		t.Fatal("delegate still attached while degraded")
	}

	// The agent restarts; with the fault disarmed the handback holds.
	inj.ArmMagnitude(core.FaultAgentCrash, 0, 0)
	eng.Run(40 * epoch)
	if got := mon.State(); got != health.Healthy {
		t.Fatalf("state after recovery = %v, want healthy", got)
	}
	st := mon.Stats()
	if st.Handbacks != 1 || st.Recoveries != 1 || st.Relapses != 0 {
		t.Fatalf("handbacks/recoveries/relapses = %d/%d/%d, want 1/1/0",
			st.Handbacks, st.Recoveries, st.Relapses)
	}
	if !d.Active() || !d.AgentAlive() {
		t.Fatal("delegate not running after handback")
	}
	if mon.DegradedTime() <= 0 {
		t.Fatal("no degraded time recorded")
	}

	want := []string{"suspect", "degraded", "recovering", "healthy"}
	got := transitionNotes(o)
	if len(got) != len(want) {
		t.Fatalf("transition notes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition notes = %v, want %v", got, want)
		}
	}

	mon.Stop()
	if err := mon.AuditErr(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestStallRecoversLikeCrash drives the same cycle through a long agent
// stall: no crash, but heartbeats stop until the stall expires.
func TestStallRecoversLikeCrash(t *testing.T) {
	inj := fault.NewInjector(1)
	inj.ArmMagnitude(core.FaultAgentStall, 1, 12)
	eng, vm, d, _ := newStack(t, inj)

	mon := health.NewMonitor(testConfig(), d, nil)
	mon.Start(eng, vm)

	eng.Run(9 * epoch)
	if got := mon.State(); got != health.Degraded {
		t.Fatalf("state during stall = %v, want degraded", got)
	}
	inj.ArmMagnitude(core.FaultAgentStall, 0, 0)
	eng.Run(50 * epoch)
	if got := mon.State(); got != health.Healthy {
		t.Fatalf("state after stall = %v, want healthy", got)
	}
	mon.Stop()
	if err := mon.AuditErr(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestHysteresisDampsTransientSignals feeds two implausible telemetry
// windows — enough to raise SUSPECT, not enough to degrade — then clean
// reports, and requires the monitor to calm back to HEALTHY without ever
// touching the delegate.
func TestHysteresisDampsTransientSignals(t *testing.T) {
	inj := fault.NewInjector(1)
	eng, vm, d, _ := newStack(t, inj)

	mon := health.NewMonitor(testConfig(), d, nil)
	badUntil := 5 * epoch // covers the checks at 2 ms and 4 ms
	mon.SetStatsSource(func() (balloon.MemStats, bool) {
		if eng.Now() < badUntil {
			return balloon.MemStats{SlowShare: 2, When: eng.Now()}, true // impossible share
		}
		return balloon.MemStats{SlowShare: 0.5, When: eng.Now()}, true
	})
	mon.Start(eng, vm)

	eng.Run(20 * epoch)
	st := mon.Stats()
	if st.Suspects != 1 {
		t.Fatalf("suspects = %d, want 1", st.Suspects)
	}
	if st.BadStats < 2 {
		t.Fatalf("bad telemetry windows = %d, want >= 2", st.BadStats)
	}
	if st.Degradations != 0 {
		t.Fatalf("degradations = %d, want 0 (hysteresis must damp the transient)", st.Degradations)
	}
	if got := mon.State(); got != health.Healthy {
		t.Fatalf("state = %v, want healthy after calm windows", got)
	}
	if !d.Active() {
		t.Fatal("delegate detached despite never degrading")
	}
	mon.Stop()
	if err := mon.AuditErr(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestNoFailoverFreezesTiering is the frozen-delegation baseline: with
// Failover off, degrading detaches the delegate and nothing replaces it.
func TestNoFailoverFreezesTiering(t *testing.T) {
	inj := fault.NewInjector(1)
	inj.ArmMagnitude(core.FaultAgentCrash, 1, 10_000)
	eng, vm, d, _ := newStack(t, inj)

	cfg := testConfig()
	cfg.Failover = false
	mon := health.NewMonitor(cfg, d, nil)
	mon.Start(eng, vm)

	eng.Run(40 * epoch)
	if got := mon.State(); got != health.Degraded {
		t.Fatalf("state = %v, want degraded (restart latency far away)", got)
	}
	st := mon.Stats()
	if st.Failovers != 0 {
		t.Fatalf("failovers = %d, want 0 with failover disabled", st.Failovers)
	}
	if st.Probes == 0 || st.FailedProbes != st.Probes {
		t.Fatalf("probes %d / failed %d: every probe should fail while the agent is down", st.Probes, st.FailedProbes)
	}
	if d.Active() {
		t.Fatal("delegate still attached in frozen degraded mode")
	}
	mon.Stop()
	if err := mon.AuditErr(); err != nil {
		t.Fatalf("audit: %v (an open degradation at stop must be legal)", err)
	}
}

// TestStopQuiescesProbeTimers: after Stop, pending probe timers must be
// no-ops so teardown's RunUntilIdle terminates.
func TestStopQuiescesProbeTimers(t *testing.T) {
	inj := fault.NewInjector(1)
	inj.ArmMagnitude(core.FaultAgentCrash, 1, 10_000)
	eng, vm, d, _ := newStack(t, inj)

	mon := health.NewMonitor(testConfig(), d, nil)
	mon.Start(eng, vm)
	eng.Run(12 * epoch)
	if mon.State() != health.Degraded {
		t.Fatalf("precondition: not degraded")
	}
	probesAtStop := mon.Stats().Probes
	mon.Stop()
	d.Detach()
	eng.RunUntilIdle() // must terminate
	if got := mon.Stats().Probes; got != probesAtStop {
		t.Fatalf("probes advanced after Stop: %d -> %d", probesAtStop, got)
	}
}
