package experiments

import (
	"strings"
	"testing"
)

func TestChaosInvariantsHold(t *testing.T) {
	s := Tiny()
	cfg := DefaultChaosConfig()
	cfg.VMs = 2
	report, err := runChaosReport(s, cfg)
	if err != nil {
		t.Fatalf("chaos failed: %v\n%s", err, report)
	}
	if !strings.Contains(report, "invariants: OK") {
		t.Fatalf("report missing invariant confirmation:\n%s", report)
	}
	// Faults must actually have fired at the non-zero rungs.
	if !strings.Contains(report, "rung x4") {
		t.Fatalf("ladder did not reach x4:\n%s", report)
	}
}

func TestChaosSameSeedBitIdentical(t *testing.T) {
	s := Tiny()
	cfg := DefaultChaosConfig()
	cfg.VMs = 2
	cfg.Ladder = []float64{0, 2}
	r1, err1 := runChaosReport(s, cfg)
	r2, err2 := runChaosReport(s, cfg)
	if err1 != nil || err2 != nil {
		t.Fatalf("chaos failed: %v / %v", err1, err2)
	}
	if r1 != r2 {
		t.Fatalf("same-seed chaos runs differ:\n--- run 1:\n%s\n--- run 2:\n%s", r1, r2)
	}
}

// runChaosReport runs the fault-injection ladder and returns its report,
// as the chaos subcommand prints it. The error is non-nil when the
// config is invalid or when any invariant was violated at any rung; in
// the latter case the report still includes the full per-layer
// accounting.
func runChaosReport(s Scale, cfg ChaosConfig) (string, error) {
	cfg = cfg.Normalized(s)
	rungs, err := RunChaosLadder(s, cfg)
	if err != nil {
		return "", err
	}
	return ChaosReport(cfg, rungs)
}
