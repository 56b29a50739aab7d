// Package policy extracts page-placement policies behind one interface,
// orthogonal to the access trackers in internal/track. A tracker-driven
// policy never does its own tracking: each round it reads the tracker's
// Counters and decides which guest pages belong on which tier, so any
// tracker pairs with any policy purely through configuration:
//
//   - heat: memtierd-style heat classes — pages bucket by log2 of their
//     access estimate; the top class is promoted, class zero demoted.
//   - age: memtierd's idle-age rule — pages seen within ActiveWithin
//     are promoted, pages idle beyond IdleAfter demoted.
//   - threshold: Memtis-style static hot threshold (§3.2.1's criticized
//     baseline, useful as the comparison point).
//   - ranked: capacity-adaptive ranking in the spirit of Demeter's
//     classifier — sort by score, fill FMEM from the top, swap when
//     full (§3.2.3's balanced relocation).
//
// The integrated designs (static, tpp, tpp-h, memtis, nomad, vtmm,
// demeter, damon) are also exposed through the same interface via an
// adapter that ignores the tracker — they bundle their own tracking —
// so a serve config selects any of them with the same `policy` stanza.
package policy

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"demeter/internal/hypervisor"
	"demeter/internal/sim"
	"demeter/internal/track"
)

// Policy decides placement for one VM from one tracker's counters.
type Policy interface {
	// Name identifies the policy in harness output and config files.
	Name() string
	// Attach starts the policy against a live VM and its tracker. The
	// integrated designs ignore tr. Config-driven policies return
	// errors, never panic.
	Attach(eng *sim.Engine, vm *hypervisor.VM, tr track.Tracker) error
	// Detach stops all policy activity. Safe to call when detached.
	Detach()
}

// Config selects and tunes a policy; zero fields take kind defaults.
type Config struct {
	// Kind is one of the tracker-driven kinds ("heat", "age",
	// "threshold", "ranked") or an integrated design ("static",
	// "demeter", "tpp", "tpp-h", "memtis", "nomad", "vtmm", "damon").
	Kind string `json:"kind"`
	// Period is the classify-and-migrate cadence; an integrated design
	// takes it as its dominant cadence.
	Period sim.Duration `json:"period"`
	// MigrationBatch caps page moves per round; zero takes the kind's
	// default.
	MigrationBatch int `json:"migration_batch"`
	// HotThreshold is the access estimate classifying a page hot
	// (threshold kind).
	HotThreshold float64 `json:"hot_threshold"`
	// ActiveWithin promotes pages seen at most this long ago (age kind).
	ActiveWithin sim.Duration `json:"active_within"`
	// IdleAfter demotes pages idle at least this long (age kind).
	IdleAfter sim.Duration `json:"idle_after"`
}

// Kinds lists the selectable policy kinds in deterministic order.
func Kinds() []string {
	return []string{
		"age", "damon", "demeter", "heat", "memtis", "nomad",
		"ranked", "static", "threshold", "tpp", "tpp-h", "vtmm",
	}
}

// TrackerDriven reports whether kind consumes a tracker's counters (as
// opposed to the integrated designs that bundle their own tracking).
func TrackerDriven(kind string) bool {
	switch kind {
	case "heat", "age", "threshold", "ranked":
		return true
	}
	return false
}

const (
	defaultPolicyPeriod  = 100 * sim.Millisecond
	defaultMigrationCap  = 512
	defaultHotThreshold  = 4
	defaultActiveWithin  = 200 * sim.Millisecond
	defaultIdleAfterMult = 10
)

// New builds a detached policy from configuration. All validation
// happens here — nothing on this path panics.
func New(cfg Config) (Policy, error) {
	if cfg.Period < 0 {
		return nil, fmt.Errorf("policy: negative period %v", cfg.Period)
	}
	if cfg.MigrationBatch < 0 {
		return nil, fmt.Errorf("policy: negative migration batch %d", cfg.MigrationBatch)
	}
	if cfg.Period == 0 {
		cfg.Period = defaultPolicyPeriod
	}
	switch cfg.Kind {
	case "heat":
		return &heatPolicy{tickPolicy: newTickPolicy(cfg)}, nil
	case "age":
		if cfg.ActiveWithin == 0 {
			cfg.ActiveWithin = defaultActiveWithin
		}
		if cfg.IdleAfter == 0 {
			cfg.IdleAfter = cfg.ActiveWithin * defaultIdleAfterMult
		}
		if cfg.IdleAfter < cfg.ActiveWithin {
			return nil, fmt.Errorf("policy: idle_after %v below active_within %v", cfg.IdleAfter, cfg.ActiveWithin)
		}
		return &agePolicy{tickPolicy: newTickPolicy(cfg)}, nil
	case "threshold":
		if cfg.HotThreshold == 0 {
			cfg.HotThreshold = defaultHotThreshold
		}
		if cfg.HotThreshold < 0 {
			return nil, fmt.Errorf("policy: negative hot threshold %v", cfg.HotThreshold)
		}
		return &thresholdPolicy{tickPolicy: newTickPolicy(cfg)}, nil
	case "ranked":
		return &rankedPolicy{tickPolicy: newTickPolicy(cfg)}, nil
	default:
		return newIntegrated(cfg)
	}
}

// tickPolicy is the shared skeleton of the tracker-driven policies: a
// ticker at Period calling the concrete round function. The round
// buffers are reused across rounds and Counters lends the tracker's own
// slice, so a steady-state round allocates nothing.
type tickPolicy struct {
	cfg    Config
	eng    *sim.Engine
	vm     *hypervisor.VM
	tr     track.Tracker
	ticker *sim.Ticker
	active bool

	pages           []pageScore
	promote, demote []uint64
}

func newTickPolicy(cfg Config) tickPolicy {
	if cfg.MigrationBatch == 0 {
		cfg.MigrationBatch = defaultMigrationCap
	}
	return tickPolicy{cfg: cfg}
}

func (p *tickPolicy) attach(eng *sim.Engine, vm *hypervisor.VM, tr track.Tracker, name string, round func()) error {
	if p.active {
		return fmt.Errorf("policy: %s already attached", name)
	}
	if tr == nil {
		return fmt.Errorf("policy: %s needs a tracker", name)
	}
	p.eng, p.vm, p.tr, p.active = eng, vm, tr, true
	p.ticker = eng.StartTicker(p.cfg.Period, func(sim.Time) {
		if p.active {
			round()
		}
	})
	return nil
}

func (p *tickPolicy) Detach() {
	if !p.active {
		return
	}
	p.active = false
	p.ticker.Stop()
}

// expand reads the tracker's counters, charges their classification and
// expands them into the reused pages buffer, bounded by limit pages.
func (p *tickPolicy) expand(limit int) []pageScore {
	counters := p.tr.Counters()
	p.chargeClassify(len(counters))
	p.pages = expandPages(p.pages[:0], counters, limit)
	return p.pages
}

// split fills the reused promote and demote buffers, in page order, with
// the slow-tier pages hot selects and the fast-tier pages cold selects,
// skipping unmapped pages.
func (p *tickPolicy) split(pages []pageScore, hot, cold func(pageScore) bool) (promote, demote []uint64) {
	promote, demote = p.promote[:0], p.demote[:0]
	for _, pg := range pages {
		node, ok := p.residentNode(pg.gvpn)
		if !ok {
			continue
		}
		switch {
		case node != 0 && hot(pg):
			promote = append(promote, pg.gvpn)
		case node == 0 && cold(pg):
			demote = append(demote, pg.gvpn)
		}
	}
	p.promote, p.demote = promote, demote
	return promote, demote
}

// residentNode returns the guest NUMA node currently backing gvpn, or
// ok=false for an unmapped page.
func (p *tickPolicy) residentNode(gvpn uint64) (node int, ok bool) {
	gpfn, ok := p.vm.Proc.Translate(gvpn)
	if !ok {
		return 0, false
	}
	return p.vm.Kernel.NodeOfGPFN(gpfn), true
}

// chargeClassify books the per-round classification cost: one PTE-op
// per counter examined, like the integrated designs.
func (p *tickPolicy) chargeClassify(counters int) {
	p.vm.ChargeGuest(hypervisor.CompClassify, sim.Duration(counters)*hypervisor.PTEOpCost)
}

// migrate moves the listed pages to node, bounded by the batch cap,
// charging migration CPU. It returns how many moves succeeded.
func (p *tickPolicy) migrate(gvpns []uint64, node int, budget int) int {
	var cost sim.Duration
	moved := 0
	for _, gvpn := range gvpns {
		if moved >= budget {
			break
		}
		c, err := p.vm.MigrateGuestPage(gvpn, node)
		cost += c
		if err == nil {
			moved++
		}
	}
	p.vm.ChargeGuest(hypervisor.CompMigrate, cost)
	return moved
}

// makeRoomAndPromote demotes cold fast-tier pages until the promotion
// set fits the fast tier's free frames, then promotes: the migration
// step of the heat and threshold policies.
func (p *tickPolicy) makeRoomAndPromote(promote, coldFast []uint64) {
	if len(promote) == 0 {
		return
	}
	if len(promote) > p.cfg.MigrationBatch {
		promote = promote[:p.cfg.MigrationBatch]
	}
	fastNode := p.vm.Kernel.Topo.Nodes[0]
	need := uint64(len(promote))
	if free := fastNode.FreeFrames(); free < need {
		p.migrate(coldFast, 1, int(need-free))
	}
	p.migrate(promote, 0, p.cfg.MigrationBatch)
}

// pageScore is one expanded, scored page used by the round functions.
type pageScore struct {
	gvpn  uint64
	score float64
	seen  sim.Time
}

// expandPages flattens region counters into per-page scores appended to
// out, bounded by limit pages (region trackers can cover the whole
// footprint; policies only ever act on a bounded set per round).
func expandPages(out []pageScore, counters []track.Counter, limit int) []pageScore {
	for _, c := range counters {
		perPage := c.Accesses
		if n := c.Pages(); n > 1 {
			perPage = c.Accesses / float64(n)
		}
		for gvpn := c.StartGVPN; gvpn < c.EndGVPN; gvpn++ {
			if len(out) >= limit {
				return out
			}
			out = append(out, pageScore{gvpn: gvpn, score: perPage, seen: c.LastSeen})
		}
	}
	return out
}

// hotterFirst orders pages hottest-first with full determinism: score,
// then recency, then address. Pages have distinct addresses, so it is a
// strict total order.
func hotterFirst(a, b pageScore) int {
	if c := cmp.Compare(b.score, a.score); c != 0 {
		return c
	}
	if c := cmp.Compare(b.seen, a.seen); c != 0 {
		return c
	}
	return cmp.Compare(a.gvpn, b.gvpn)
}

// sortByScoreDesc orders pages hottest-first under hotterFirst.
func sortByScoreDesc(ps []pageScore) { slices.SortFunc(ps, hotterFirst) }

// selectHottest reorders ps so that ps[:k] holds its k hottest pages
// under hotterFirst, in no particular order. The order is strict and
// total, so the head is the set a full sortByScoreDesc puts there. It is
// a quickselect with a median-of-three pivot that falls back to sorting
// the open range once the partitions stop shrinking fast.
func selectHottest(ps []pageScore, k int) {
	lo, hi := 0, len(ps)
	for depth := 2 * bits.Len(uint(len(ps))); lo < k && k < hi; depth-- {
		if depth == 0 {
			sortByScoreDesc(ps[lo:hi])
			return
		}
		p := lo + partitionHottest(ps[lo:hi])
		switch {
		case k < p:
			hi = p
		case k > p+1:
			lo = p + 1
		default:
			return
		}
	}
}

// partitionHottest moves the median of ps's first, middle and last pages
// to index i, every hotter page before it and every colder page after
// it, and returns i. ps has at least two pages.
func partitionHottest(ps []pageScore) int {
	last, mid := len(ps)-1, len(ps)/2
	if hotterFirst(ps[mid], ps[0]) < 0 {
		ps[0], ps[mid] = ps[mid], ps[0]
	}
	if hotterFirst(ps[last], ps[0]) < 0 {
		ps[0], ps[last] = ps[last], ps[0]
	}
	if hotterFirst(ps[mid], ps[last]) < 0 {
		ps[mid], ps[last] = ps[last], ps[mid]
	}
	pivot, i := ps[last], 0
	for j := 0; j < last; j++ {
		if hotterFirst(ps[j], pivot) < 0 {
			ps[i], ps[j] = ps[j], ps[i]
			i++
		}
	}
	ps[i], ps[last] = ps[last], ps[i]
	return i
}
