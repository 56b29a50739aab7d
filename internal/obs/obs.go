// Package obs is the simulator's unified observability layer: a
// label-aware metrics registry (counters, gauges and stats.Histogram
// behind one snapshot interface) plus a bounded structured event journal
// (a ring buffer of typed records stamped with simulated time).
//
// The design rule that keeps it compatible with the access fast path
// (which must stay 0 allocs/op): nothing on a hot path talks to the
// registry. Components keep counting into their existing plain stats
// fields (hypervisor.VMStats, tlb.Stats, pebs.Stats, balloon counters,
// sim.Ledger); the registry learns about them only through OnSnapshot
// publish hooks, which copy the ad-hoc counters into registered metrics
// at snapshot time. Per-access work is therefore exactly what it was
// before this package existed — no map lookups, no interface calls.
//
// The journal is the exception that proves the rule: it records rare
// control-plane events (migrations, PMIs, balloon ops, full TLB flushes,
// fault injections), never per-access ones, and appending is a single
// ring-slot store guarded by one nil check (a count-only journal skips
// the store).
package obs

// Obs bundles one machine's registry and journal. Experiments attach one
// Obs per hypervisor.Machine so concurrent cluster runs never share
// observability state (the same isolation rule the engines follow).
type Obs struct {
	Reg     *Registry
	Journal *Journal
}

// New returns an Obs whose journal holds journalCap events (0 selects
// DefaultJournalCap). The journal publishes its own occupancy counters
// into the registry at snapshot time.
func New(journalCap int) *Obs { return withJournal(NewJournal(journalCap)) }

// NewCounting is New with a count-only journal: the same journal
// counters, no retained events.
func NewCounting(journalCap int) *Obs { return withJournal(newCountingJournal(journalCap)) }

// withJournal returns an Obs around j with j's counters published.
func withJournal(j *Journal) *Obs {
	o := &Obs{Reg: NewRegistry(), Journal: j}
	o.Reg.OnSnapshot(func(r *Registry) {
		r.Counter("journal_events").Set(o.Journal.Total())
		r.Counter("journal_dropped").Set(o.Journal.Dropped())
	})
	return o
}
