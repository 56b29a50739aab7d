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
	"fmt"

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
	// regions already. It fails, naming the design, when the policy is
	// already attached or its configuration cannot run, and then leaves
	// the policy as it was.
	Attach(eng *sim.Engine, vm *hypervisor.VM) error
	// Detach stops all activity.
	Detach()
}

// Static is the no-management baseline: pages stay where first touch put
// them.
type Static struct{ active bool }

// NewStatic returns the static-placement policy.
func NewStatic() *Static { return &Static{} }

// Name implements Policy.
func (*Static) Name() string { return "static" }

// Attach implements Policy; it manages nothing.
func (p *Static) Attach(*sim.Engine, *hypervisor.VM) error {
	if p.active {
		return errAttachedTwice(p.Name())
	}
	p.active = true
	return nil
}

// Detach implements Policy.
func (p *Static) Detach() { p.active = false }

// scoreboard tracks per-page A-bit history for the scanning designs: a
// small saturating counter per page, incremented when the scan finds the
// A bit set and decremented otherwise (an LRU-generation approximation).
//
// Scores are dense: 512-key pages, each allocated on a key's first
// increment, so a gpfn board holds one page per 512 frames and a gvpn
// board one per leaf block of the guest page table. A score of 0 means the key
// has none. Scans visit keys in ascending order, so the last page used
// is cached and the page map is consulted once per 512 keys.
type scoreboard struct {
	pages   map[uint64]*scorePage // key>>scorePageShift → page
	lastKey uint64                // page key of last
	last    *scorePage            // nil until the first page exists
	max     uint8
}

const (
	scorePageShift = 9
	scorePageMask  = 1<<scorePageShift - 1
)

type scorePage [1 << scorePageShift]uint8

func newScoreboard(max uint8) *scoreboard {
	return &scoreboard{pages: make(map[uint64]*scorePage), max: max}
}

// cell returns key's score cell. Only alloc creates a missing page;
// without it a key on a missing page has no cell (nil) and no score.
func (s *scoreboard) cell(key uint64, alloc bool) *uint8 {
	pk := key >> scorePageShift
	if s.last == nil || s.lastKey != pk {
		pg := s.pages[pk]
		if pg == nil {
			if !alloc {
				return nil
			}
			pg = new(scorePage)
			s.pages[pk] = pg
		}
		s.last, s.lastKey = pg, pk
	}
	return &s.last[key&scorePageMask]
}

// observe folds one scan observation and returns the new score.
func (s *scoreboard) observe(key uint64, accessed bool) uint8 {
	c := s.cell(key, accessed)
	if c == nil {
		return 0
	}
	if accessed {
		if *c < s.max {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
	return *c
}

// get returns the current score.
func (s *scoreboard) get(key uint64) uint8 {
	if c := s.cell(key, false); c != nil {
		return *c
	}
	return 0
}

// decayCounts is a per-gpfn access count that decays by halving (Memtis's
// histogram, vTMM's frequency table), dense over the guest's frames. A
// count starts at 1 on a gpfn's first bump and is dropped once a halving
// takes it below 0.25, so 0 marks a gpfn without one.
type decayCounts struct {
	v []float64
	n int // gpfns with a count
}

func newDecayCounts(frames uint64) decayCounts {
	return decayCounts{v: make([]float64, frames)}
}

// bump counts one access to gpfn.
func (c *decayCounts) bump(gpfn uint64) {
	if c.v[gpfn] == 0 {
		c.n++
	}
	c.v[gpfn]++
}

// len returns the number of gpfns with a count.
func (c *decayCounts) len() int { return c.n }

// walk visits every counted gpfn in ascending order with its count, then
// halves that count when halve is set. It stops after the last count.
func (c *decayCounts) walk(halve bool, fn func(gpfn uint64, count float64)) {
	left := c.n
	for i := 0; left > 0; i++ {
		v := c.v[i]
		if v == 0 {
			continue
		}
		left--
		fn(uint64(i), v)
		if halve {
			v /= 2
			if v < 0.25 {
				v = 0
				c.n--
			}
			c.v[i] = v
		}
	}
}

// errAttachedTwice is the error every design's Attach returns while it
// is still attached.
func errAttachedTwice(design string) error {
	return fmt.Errorf("tmm: %s attached twice", design)
}
