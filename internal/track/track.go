// Package track extracts Demeter's access-tracking mechanisms behind one
// Tracker interface, orthogonal to the placement policies in
// internal/policy. The paper's designs bundle tracking and placement
// (TPP = A-bit scan + watermark demotion, Memtis = PEBS + threshold
// classification); splitting the axes memtierd-style lets any tracker
// drive any policy, so tracker × policy pairings become configuration
// instead of code:
//
//   - pebs: EPT-friendly PEBS sampling (§3.2.2) — the hardware feed
//     Demeter itself consumes, per-page counts at sample resolution.
//   - damon: the DAMON region profiler (§6.3) — adaptive region
//     split/merge, counts per region rather than per page.
//   - abit: bounded guest page-table A-bit scanning through
//     internal/guestos — TPP's tracking side without its policy.
//   - idlepage: idle-page aging in the style of Linux's page_idle
//     bitmap — pure recency, no frequency; the feed memtierd's
//     idle-age histograms are built from. It is the abit scanner with
//     a different visit rule.
//
// Trackers attach to a live VM, charge their tracking CPU to the same
// ledger component the integrated designs use ("track"), and expose one
// read model: a deterministic, sorted slice of Counters.
package track

import (
	"fmt"

	"demeter/internal/hypervisor"
	"demeter/internal/sim"
)

// Counter is one tracked page range: [StartGVPN, EndGVPN) with a decayed
// access estimate and the last simulated time the tracker saw it
// accessed. Page-granular trackers emit EndGVPN = StartGVPN+1; the DAMON
// tracker emits whole regions.
type Counter struct {
	StartGVPN, EndGVPN uint64
	Accesses           float64
	LastSeen           sim.Time
}

// Pages returns the counter's page span.
func (c Counter) Pages() uint64 { return c.EndGVPN - c.StartGVPN }

// Tracker is one access-tracking mechanism bound to one VM.
type Tracker interface {
	// Name identifies the mechanism in harness output and config files.
	Name() string
	// Attach starts tracking. The workload must have Setup its regions.
	// Unlike the integrated tmm designs, a config-driven Tracker returns
	// errors instead of panicking.
	Attach(eng *sim.Engine, vm *hypervisor.VM) error
	// Detach stops all tracking activity. Safe to call when detached.
	Detach()
	// Counters returns the current read model, sorted by StartGVPN. The
	// slice is the tracker's own, lent without a copy: it is read-only
	// and valid until the tracker's next event (a scan round, drain,
	// decay or aggregation). Callers read it at once and keep nothing;
	// one that must keep it copies it.
	Counters() []Counter
}

// Config selects and tunes a tracker; the zero value of every field
// means "use the kind's default".
type Config struct {
	// Kind is one of "pebs", "damon", "abit", "idlepage".
	Kind string `json:"kind"`
	// Period is the tracker's work cadence: drain period for pebs,
	// aggregation interval for damon, scan round period for abit and
	// idlepage.
	Period sim.Duration `json:"period"`
	// SamplePeriod is the PEBS period (pebs kind only).
	SamplePeriod uint64 `json:"sample_period"`
	// ScanBatch bounds pages visited per scan round (abit/idlepage).
	ScanBatch int `json:"scan_batch"`
	// Seed fixes internal randomness where a kind has any (damon). It is
	// not a config key: the owner derives it (serve uses the VM seed + 1).
	Seed uint64 `json:"-"`
}

// Kinds lists the selectable tracker kinds in deterministic order.
func Kinds() []string { return []string{"abit", "damon", "idlepage", "pebs"} }

// New builds a detached tracker from configuration. All validation
// happens here — nothing on this path panics.
func New(cfg Config) (Tracker, error) {
	if cfg.Period < 0 {
		return nil, fmt.Errorf("track: negative period %v", cfg.Period)
	}
	if cfg.ScanBatch < 0 {
		return nil, fmt.Errorf("track: negative scan batch %d", cfg.ScanBatch)
	}
	switch cfg.Kind {
	case "pebs":
		return newPEBSTracker(cfg)
	case "damon":
		return newDAMONTracker(cfg)
	case "abit":
		return newScanTracker(cfg, defaultABitScanPeriod, abitVisit), nil
	case "idlepage":
		return newScanTracker(cfg, defaultIdleScanPeriod, idleVisit), nil
	default:
		return nil, fmt.Errorf("track: unknown tracker kind %q (want one of %v)", cfg.Kind, Kinds())
	}
}

// chargeTrack books tracking CPU on the guest like every other guest-run
// tracking mechanism.
func chargeTrack(vm *hypervisor.VM, d sim.Duration) {
	vm.ChargeGuest(hypervisor.CompTrack, d)
}
