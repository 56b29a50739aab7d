package experiments

import (
	"strings"
	"testing"

	"demeter/internal/balloon"
	"demeter/internal/core"
	"demeter/internal/fault"
)

// guestFaultSchedule arms every delegation-path fault point at rates
// aggressive enough that agents crash, stall, lie, and wedge within a
// tiny-scale run.
func guestFaultSchedule() fault.Schedule {
	return fault.Schedule{
		core.FaultAgentCrash:    0.05,
		core.FaultAgentStall:    0.05,
		core.FaultChannelWedge:  0.05,
		balloon.FaultStaleStats: 0.2,
		balloon.FaultOpTimeout:  0.05,
	}
}

func healthChaosConfig() ChaosConfig {
	cfg := DefaultChaosConfig()
	cfg.VMs = 2
	cfg.Health = true
	cfg.Schedule = guestFaultSchedule()
	cfg.Ladder = []float64{0, 1, 4}
	// Crashed agents freeze tiering until failover catches up; the floor
	// asserts the fallback keeps the cluster moving, not that it matches
	// fault-free throughput.
	cfg.Floor = 0.1
	return cfg
}

// TestChaosHealthInvariantsUnderAgentFaults arms all four guest-delegation
// fault points with monitors on: every rung must finish with zero
// violations (monitor audit included) and the report must carry the
// health accounting line.
func TestChaosHealthInvariantsUnderAgentFaults(t *testing.T) {
	s := Tiny()
	report, err := runChaosReport(s, healthChaosConfig())
	if err != nil {
		t.Fatalf("health chaos failed: %v\n%s", err, report)
	}
	if !strings.Contains(report, "invariants: OK") {
		t.Fatalf("report missing invariant confirmation:\n%s", report)
	}
	if !strings.Contains(report, "health:") {
		t.Fatalf("report missing health accounting:\n%s", report)
	}
	// The armed crash/stall faults must actually trip the monitor at the
	// faulty rungs — a chaos smoke that never degrades tests nothing.
	if !strings.Contains(report, "degradations ") || strings.Contains(report, "checks 0,") {
		t.Fatalf("monitors never ran:\n%s", report)
	}
}

// TestChaosHealthDisabledKeepsReportShape: without Health the report must
// not grow a health line, so pre-existing frozen corpus reports and the
// default chaos smoke stay byte-stable.
func TestChaosHealthDisabledKeepsReportShape(t *testing.T) {
	s := Tiny()
	cfg := DefaultChaosConfig()
	cfg.VMs = 2
	cfg.Ladder = []float64{0, 1}
	report, err := runChaosReport(s, cfg)
	if err != nil {
		t.Fatalf("chaos failed: %v\n%s", err, report)
	}
	if strings.Contains(report, "health:") {
		t.Fatalf("health line leaked into monitor-less report:\n%s", report)
	}
}

// TestChaosHealthConfigValidation pins the scenario-space boundaries for
// the new knobs.
func TestChaosHealthConfigValidation(t *testing.T) {
	s := Tiny()
	bad := []ChaosConfig{
		{Seed: 1, HeartbeatEpochs: 4}, // heartbeat without health
		{Seed: 1, NoFailover: true},   // failover knob without health
		{Seed: 1, Health: true, HeartbeatEpochs: 65},
		{Seed: 1, Health: true, HeartbeatEpochs: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Normalized(s).Validate(); err == nil {
			t.Errorf("config %d validated: %+v", i, cfg)
		}
	}
	good := ChaosConfig{Seed: 1, Health: true, NoFailover: true, HeartbeatEpochs: 2}
	if err := good.Normalized(s).Validate(); err != nil {
		t.Errorf("good health config rejected: %v", err)
	}
}

// TestChaosParallelHealthByteIdentical extends the determinism guarantee
// to monitored runs: failover and handback must replay bit-identically
// across worker-pool widths.
func TestChaosParallelHealthByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster runs in -short mode")
	}
	s := Tiny()
	cfg := healthChaosConfig()
	run := func() string {
		report, err := runChaosReport(s, cfg)
		if err != nil {
			t.Fatalf("health chaos failed: %v\n%s", err, report)
		}
		return report
	}
	seq, par := seqVsPar(t, run)
	if seq != par {
		t.Errorf("parallel health chaos differs from sequential\n--- sequential:\n%s\n--- parallel:\n%s", seq, par)
	}
}
