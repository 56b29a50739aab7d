package pebs

import (
	"testing"

	"demeter/internal/fault"
)

// adaptiveBase is the test unit's base sample period, small so that
// adaptation windows (adaptWindowPeriods × adaptiveBase qualifying events)
// pass quickly.
const adaptiveBase = 4

// adaptiveWindow is the test unit's adaptation window in qualifying events.
const adaptiveWindow = adaptWindowPeriods * adaptiveBase

// adaptiveCfg is a small adaptive unit: base period adaptiveBase and a
// two-entry buffer.
func adaptiveCfg() Config {
	cfg := DefaultConfig()
	cfg.SamplePeriod = adaptiveBase
	cfg.BufferEntries = 2
	cfg.AdaptivePeriod = true
	return cfg
}

// stormUnit returns an adaptive unit driven through enough storm windows
// to widen to its cap (maxPeriodShift doublings, plus two spare windows),
// with its injector still armed to burst stormPMIs PMIs per event.
func stormUnit(t *testing.T) (*Unit, *fault.Injector) {
	t.Helper()
	u := armedUnit(t, adaptiveCfg())
	u.OnPMI = func() { u.Drain() }
	inj := fault.NewInjector(1)
	inj.ArmMagnitude(FaultPMIStorm, 1, stormPMIs) // every event bursts spurious PMIs
	u.Fault = inj
	for i := 0; i < (maxPeriodShift+2)*adaptiveWindow; i++ {
		u.Record(uint64(i), 200, false)
	}
	return u, inj
}

func TestAdaptivePeriodWidensUnderPMIStorm(t *testing.T) {
	u, _ := stormUnit(t)
	st := u.Stats()
	if st.Widenings == 0 {
		t.Fatalf("no widenings under a sustained PMI storm: %+v", st)
	}
	if got := u.CurrentPeriod(); got <= adaptiveBase {
		t.Fatalf("period %d not widened beyond base %d", got, adaptiveBase)
	}
	max := uint64(adaptiveBase) << maxPeriodShift
	if got := u.CurrentPeriod(); got != max {
		t.Fatalf("period %d after a long storm, want the cap %d", got, max)
	}
	if st.Widenings != maxPeriodShift {
		t.Fatalf("widenings = %d, want %d doublings up to the cap", st.Widenings, maxPeriodShift)
	}
}

func TestAdaptivePeriodNarrowsWhenCalm(t *testing.T) {
	u, inj := stormUnit(t)
	widened := u.CurrentPeriod()
	if widened <= adaptiveBase {
		t.Fatalf("storm did not widen (period %d)", widened)
	}

	// Storm over: with a drained buffer and no injected PMIs, calm
	// windows walk the period back down toward the base. Each halving
	// takes calmWindows windows; one spare window absorbs the storm's
	// last burst.
	inj.ArmMagnitude(FaultPMIStorm, 0, 0)
	sinceNarrowing := 0 // whole windows since the storm or the last narrowing
	for i := 0; u.CurrentPeriod() > adaptiveBase; i++ {
		if i >= (maxPeriodShift*calmWindows+2)*adaptiveWindow {
			t.Fatalf("period %d still above base %d after %d calm events", u.CurrentPeriod(), adaptiveBase, i)
		}
		before := u.CurrentPeriod()
		u.Record(uint64(i), 200, false)
		u.Drain() // keep the buffer empty so no real PMIs fire
		if got := u.CurrentPeriod(); got < adaptiveBase {
			t.Fatalf("period %d narrowed below base %d", got, adaptiveBase)
		}
		if (i+1)%adaptiveWindow == 0 {
			sinceNarrowing++
		}
		if u.CurrentPeriod() < before {
			if sinceNarrowing < calmWindows {
				t.Fatalf("narrowed after %d calm windows, want at least %d", sinceNarrowing, calmWindows)
			}
			sinceNarrowing = 0
		}
	}
	st := u.Stats()
	if st.Narrowings == 0 {
		t.Fatalf("no narrowings after the storm passed: %+v", st)
	}
	if got := u.CurrentPeriod(); got != adaptiveBase {
		t.Fatalf("period %d did not return to base %d", got, adaptiveBase)
	}
	if st.Narrowings != st.Widenings {
		t.Fatalf("narrowings = %d, want one per widening (%d)", st.Narrowings, st.Widenings)
	}
}

func TestAdaptiveDisabledKeepsPeriodFixed(t *testing.T) {
	cfg := adaptiveCfg()
	cfg.AdaptivePeriod = false
	u := armedUnit(t, cfg)
	u.OnPMI = func() { u.Drain() }
	inj := fault.NewInjector(1)
	inj.ArmMagnitude(FaultPMIStorm, 1, stormPMIs)
	u.Fault = inj
	for i := 0; i < (maxPeriodShift+2)*adaptiveWindow; i++ {
		u.Record(uint64(i), 200, false)
	}
	if got := u.CurrentPeriod(); got != adaptiveBase {
		t.Fatalf("period %d moved with adaptation disabled", got)
	}
	if u.Stats().Widenings != 0 {
		t.Fatal("widening counted with adaptation disabled")
	}
}

func TestBufferOverflowFaultDropsSample(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SamplePeriod = 1
	cfg.BufferEntries = 8
	u := armedUnit(t, cfg)
	drained := 0
	u.OnPMI = func() { drained += len(u.Drain()) }
	inj := fault.NewInjector(1)
	inj.Arm(FaultBufferOverflow, 1)
	u.Fault = inj
	for i := 0; i < 10; i++ {
		u.Record(uint64(i), 200, false)
	}
	st := u.Stats()
	if st.Dropped != 10 {
		t.Fatalf("dropped = %d, want all 10 under a permanent overflow fault", st.Dropped)
	}
	if st.PMIs == 0 {
		t.Fatal("overflow fault must still raise the PMI")
	}
	if drained+u.Buffered() != 0 {
		t.Fatal("overflowed samples must not reach the buffer")
	}
}
