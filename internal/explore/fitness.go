package explore

import (
	"fmt"

	"demeter/internal/experiments"
)

// Fitness scores one candidate's ladder outcome. Invariant violations
// dominate everything; among non-violating candidates the outlier terms —
// throughput degradation vs the fault-free rung, migration thrash, PMI
// storms and balloon-watchdog recoveries, all extracted from the rungs'
// condensed metrics snapshots — grade how close to the edge a scenario
// pushed the system, which is the breeding signal that walks the
// population toward real failures.
type Fitness struct {
	// Violations counts invariant violations across all rungs.
	Violations int
	// Degradation is the worst fractional throughput drop vs rung 0.
	Degradation float64
	// Thrash is the worst per-rung migration churn (busy + rollbacks per
	// 1k guest accesses).
	Thrash float64
	// PMIStorm is the worst per-rung PMI rate (PMIs per 1k accesses).
	PMIStorm float64
	// BalloonRecoveries is the worst per-rung balloon watchdog activity
	// (timeouts + recoveries + resubmits).
	BalloonRecoveries float64
	// Score is the scalar the explorer ranks by.
	Score float64
}

// Fitness weights. Violations are worth more than any achievable outlier
// sum, so a failing scenario always outranks a merely-stressed one.
const (
	wViolation   = 1000.0
	wDegradation = 100.0
	wThrash      = 10.0
	wPMI         = 1.0
	wBalloon     = 1.0
)

// Score computes the fitness of a ladder outcome from its structured rung
// results and their metrics snapshots.
func Score(rungs []experiments.RungResult) Fitness {
	var f Fitness
	for i, r := range rungs {
		f.Violations += len(r.Violations)
		if i > 0 && rungs[0].Throughput > 0 {
			if d := 1 - r.Throughput/rungs[0].Throughput; d > f.Degradation {
				f.Degradation = d
			}
		}
		acc := r.Snapshot.Total("vm_accesses")
		if acc < 1 {
			acc = 1
		}
		thrash := (r.Snapshot.Total("migrate_busy") +
			r.Snapshot.Total("migrate_rollbacks") +
			r.Snapshot.Total("swap_rollbacks")) * 1000 / acc
		if thrash > f.Thrash {
			f.Thrash = thrash
		}
		pmi := r.Snapshot.Total("pebs_pmis") * 1000 / acc
		if pmi > f.PMIStorm {
			f.PMIStorm = pmi
		}
		bal := r.Snapshot.Total("balloon_timeouts") +
			r.Snapshot.Total("balloon_recovered") +
			r.Snapshot.Total("balloon_resubmits")
		if bal > f.BalloonRecoveries {
			f.BalloonRecoveries = bal
		}
	}
	// Each conversion rounds its product, so no GOARCH fuses it into a
	// multiply-add.
	f.Score = float64(wViolation*float64(f.Violations)) +
		float64(wDegradation*f.Degradation) +
		float64(wThrash*f.Thrash) +
		float64(wPMI*f.PMIStorm) +
		float64(wBalloon*f.BalloonRecoveries)
	return f
}

// String renders the outlier terms compactly for the hunt report.
func (f Fitness) String() string {
	return fmt.Sprintf("(viol %d, degr %.3g, thrash %.3g, pmi %.3g, balloon %.3g)",
		f.Violations, f.Degradation, f.Thrash, f.PMIStorm, f.BalloonRecoveries)
}
