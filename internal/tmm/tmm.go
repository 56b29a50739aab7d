// Package tmm implements the tiered memory management designs the paper
// evaluates against Demeter:
//
//   - Static: first-touch placement, no management (the "static
//     allocation" reference in Figure 6).
//   - TPP: Transparent Page Placement (Maruf et al., ASPLOS'23) run
//     inside the guest (the paper's G-TPP): GPT A-bit scanning with
//     single-address invalidations, hint-fault promotion, watermark
//     demotion.
//   - TPPH: the hypervisor conversion of TPP (the paper's H-TPP/TPP-H):
//     EPT A-bit scanning through the MMU notifier — which, lacking gVAs,
//     must invalidate entire EPT translations — and host-side migration.
//   - Memtis (Lee et al., SOSP'23): guest PEBS with dedicated collection
//     threads, per-sample software address translation, a physical-page
//     hotness histogram and threshold classification.
//   - Nomad (Xiang et al., OSDI'24): TPP's guest A-bit scanner with
//     transactional shadow-copy migration, trading placement agility for
//     thrash-resistance.
//
// All policies share one structural interface (Name/Attach/Detach) so the
// experiment harness treats them and core.Demeter uniformly, and all
// charge their CPU time to the same ledger components
// (hypervisor.CompTrack, CompClassify, CompMigrate) that Figures 2 and 7
// aggregate.
package tmm

import (
	"demeter/internal/hypervisor"
	"demeter/internal/sim"
)

// ScanConfig is what the evaluation varies with scale for the scanning
// designs (TPP, TPP-H, Nomad, vTMM). Everything else about a design is
// a constant at its published value in the design's file.
type ScanConfig struct {
	// ScanPeriod is the A-bit scan cadence (vTMM also classifies at it).
	ScanPeriod sim.Duration
	// ScanBatchPages bounds the page-table entries visited per round;
	// the scan resumes from a cursor next round, like kswapd's
	// incremental LRU walks. Zero means unbounded.
	ScanBatchPages int
	// MigrationBatch caps page moves per round.
	MigrationBatch int
}

// DefaultScanConfig is the published full-time-scale cadence and batch
// TPP, TPP-H and Nomad share.
func DefaultScanConfig() ScanConfig {
	return ScanConfig{ScanPeriod: sim.Second, MigrationBatch: 4096}
}

// scanBudget is how many entries one round may visit in a table holding
// mapped entries.
func (c ScanConfig) scanBudget(mapped uint64) int {
	if c.ScanBatchPages > 0 {
		return c.ScanBatchPages
	}
	return int(mapped)
}

// Policy is the common TMM lifecycle. core.Demeter satisfies it too.
type Policy interface {
	// Name identifies the design in harness output.
	Name() string
	// Attach starts management of vm; the workload must have Setup its
	// regions already.
	Attach(eng *sim.Engine, vm *hypervisor.VM)
	// Detach stops all activity.
	Detach()
}

// Static is the no-management baseline: pages stay where first touch put
// them.
type Static struct{}

// NewStatic returns the static-placement policy.
func NewStatic() *Static { return &Static{} }

// Name implements Policy.
func (*Static) Name() string { return "static" }

// Attach implements Policy (no-op).
func (*Static) Attach(*sim.Engine, *hypervisor.VM) {}

// Detach implements Policy (no-op).
func (*Static) Detach() {}

// scoreboard tracks per-page A-bit history for the scanning designs: a
// small saturating counter per page, incremented when the scan finds the
// A bit set and decremented otherwise (an LRU-generation approximation).
type scoreboard struct {
	score map[uint64]uint8
	max   uint8
}

func newScoreboard(max uint8) *scoreboard {
	return &scoreboard{score: make(map[uint64]uint8), max: max}
}

// observe folds one scan observation and returns the new score.
func (s *scoreboard) observe(key uint64, accessed bool) uint8 {
	v := s.score[key]
	if accessed {
		if v < s.max {
			v++
		}
	} else if v > 0 {
		v--
	}
	if v == 0 {
		delete(s.score, key)
		return 0
	}
	s.score[key] = v
	return v
}

// get returns the current score.
func (s *scoreboard) get(key uint64) uint8 { return s.score[key] }
