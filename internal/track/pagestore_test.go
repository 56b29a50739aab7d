package track

import (
	"fmt"
	"sort"
	"testing"

	"demeter/internal/guestos"
	"demeter/internal/sim"
	"demeter/internal/simrand"
)

// mapModel is the reference oracle for the page store: the per-page map
// model the page-granular trackers used before the store, kept verbatim
// so seeded update sequences can be replayed through both.
type mapModel struct {
	acc  map[uint64]float64
	seen map[uint64]sim.Time
}

func newMapModel() *mapModel {
	return &mapModel{acc: make(map[uint64]float64), seen: make(map[uint64]sim.Time)}
}

func (m *mapModel) abitVisit(gvpn uint64, accessed bool, now sim.Time) {
	if accessed {
		if m.acc[gvpn] < abitMaxScore {
			m.acc[gvpn]++
		}
		m.seen[gvpn] = now
	} else if c := m.acc[gvpn]; c > 0 {
		if c <= 1 {
			delete(m.acc, gvpn)
		} else {
			m.acc[gvpn] = c - 1
		}
	}
}

func (m *mapModel) idleMarkActive(gvpn uint64, now sim.Time) {
	m.seen[gvpn] = now
	m.acc[gvpn] = 1
}

func (m *mapModel) pebsSample(gvpn uint64, now sim.Time) {
	m.acc[gvpn]++
	m.seen[gvpn] = now
}

func (m *mapModel) pebsDecay() {
	for gvpn, c := range m.acc {
		c *= pebsDecay
		if c < pebsEvict {
			delete(m.acc, gvpn)
			continue
		}
		m.acc[gvpn] = c
	}
}

// counters is the old sortedCounters read: every seen page in gvpn
// order, an absent count reading as 0.
func (m *mapModel) counters() []Counter {
	keys := make([]uint64, 0, len(m.seen))
	for gvpn := range m.seen {
		keys = append(keys, gvpn)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Counter, 0, len(keys))
	for _, gvpn := range keys {
		out = append(out, Counter{StartGVPN: gvpn, EndGVPN: gvpn + 1, Accesses: m.acc[gvpn], LastSeen: m.seen[gvpn]})
	}
	return out
}

// coverage records which store and tracker paths a replay exercised, so
// the test fails if a sequence stops reaching one of them.
type coverage struct {
	resorts, saturated, decremented, evicted, resampled int
}

func requireSameCounters(t *testing.T, step int, got, want []Counter) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: %d counters, oracle has %d", step, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: counter %d = %+v, oracle %+v", step, i, got[i], want[i])
		}
	}
}

// read compares one store read against the oracle, counting reads that
// had to restore gvpn order.
func read(t *testing.T, step int, s *pageStore, tr Tracker, m *mapModel, cov *coverage) {
	t.Helper()
	if s.unsorted {
		cov.resorts++
	}
	requireSameCounters(t, step, tr.Counters(), m.counters())
}

// scanOrder visits n of span pages from a random cursor, wrapping like
// an incremental page-table scan, and returns them as layout gvpns.
func scanOrder(rng *simrand.Source, gvpnOf layout, span uint64, n int) []uint64 {
	cursor := rng.Uint64n(span)
	out := make([]uint64, n)
	for i := range out {
		out[i] = gvpnOf((cursor + uint64(i)) % span)
	}
	return out
}

// layout places a replay's i-th page, in gvpn order, at a gvpn.
type layout func(i uint64) uint64

// contiguous lays the pages out from base up.
func contiguous(base uint64) layout { return func(i uint64) uint64 { return base + i } }

// heapAndMmap splits the pages between the top of a heap and the bottom
// of an mmap area, far apart in the address space like the two VMAs of
// a guest process, so lookups alternate between distant index pages.
func heapAndMmap(span uint64) layout {
	heap := guestos.HeapBase>>guestos.PageShift + 1000
	mmap := guestos.MmapBase>>guestos.PageShift - span
	return func(i uint64) uint64 {
		if i < span/2 {
			return heap + i
		}
		return mmap + i
	}
}

func TestPageStoreMatchesMapModel(t *testing.T) {
	const span = 96
	for seed := uint64(1); seed <= 20; seed++ {
		gvpnOf := contiguous(1<<20 + seed*1000)
		t.Run(fmt.Sprintf("abit/seed%d", seed), func(t *testing.T) { replayABit(t, seed, gvpnOf, span) })
		t.Run(fmt.Sprintf("idlepage/seed%d", seed), func(t *testing.T) { replayIdle(t, seed, gvpnOf, span) })
		t.Run(fmt.Sprintf("pebs/seed%d", seed), func(t *testing.T) { replayPEBS(t, seed, gvpnOf, span) })
	}
}

// TestPageStoreMatchesMapModelAcrossIndexPages replays the same
// sequences over layouts that cross the slot index's page boundaries:
// a span straddling gvpn 511/512, and pages split between a heap and an
// mmap area.
func TestPageStoreMatchesMapModelAcrossIndexPages(t *testing.T) {
	const span = 96
	layouts := []struct {
		name   string
		gvpnOf layout
	}{
		{"boundary", contiguous(512 - span/2)},
		{"heap+mmap", heapAndMmap(span)},
	}
	for _, l := range layouts {
		for seed := uint64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%s/abit/seed%d", l.name, seed), func(t *testing.T) { replayABit(t, seed, l.gvpnOf, span) })
			t.Run(fmt.Sprintf("%s/idlepage/seed%d", l.name, seed), func(t *testing.T) { replayIdle(t, seed, l.gvpnOf, span) })
			t.Run(fmt.Sprintf("%s/pebs/seed%d", l.name, seed), func(t *testing.T) { replayPEBS(t, seed, l.gvpnOf, span) })
		}
	}
}

func replayABit(t *testing.T, seed uint64, gvpnOf layout, span uint64) {
	rng := simrand.New(seed)
	tr := &scanTracker{visit: abitVisit}
	tr.store.reset()
	m := newMapModel()
	var cov coverage
	hot := gvpnOf(rng.Uint64n(span))
	for step := 0; step < 400; step++ {
		now := sim.Time(step) * sim.Millisecond
		for _, gvpn := range scanOrder(rng, gvpnOf, span, 1+rng.Intn(int(span))) {
			// A hot page stays accessed long enough to saturate; the
			// rest flicker and decay back to zero.
			accessed := gvpn == hot || rng.Intn(4) == 0
			before := m.acc[gvpn]
			tr.visit(&tr.store, gvpn, accessed, now)
			m.abitVisit(gvpn, accessed, now)
			if before < abitMaxScore && m.acc[gvpn] == abitMaxScore {
				cov.saturated++
			}
			if before == 1 && !accessed {
				cov.decremented++
			}
		}
		if rng.Intn(3) == 0 {
			read(t, step, &tr.store, tr, m, &cov)
		}
		if step%100 == 99 {
			hot = gvpnOf(rng.Uint64n(span))
		}
	}
	read(t, -1, &tr.store, tr, m, &cov)
	if cov.resorts == 0 || cov.saturated == 0 || cov.decremented == 0 {
		t.Fatalf("sequence missed a path: %+v", cov)
	}
}

func replayIdle(t *testing.T, seed uint64, gvpnOf layout, span uint64) {
	rng := simrand.New(seed)
	tr := &scanTracker{visit: idleVisit}
	tr.store.reset()
	m := newMapModel()
	var cov coverage
	for step := 0; step < 400; step++ {
		now := sim.Time(step) * sim.Millisecond
		for _, gvpn := range scanOrder(rng, gvpnOf, span, 1+rng.Intn(int(span))) {
			// Set-and-test: only pages found accessed are marked.
			accessed := rng.Intn(8) == 0
			tr.visit(&tr.store, gvpn, accessed, now)
			if accessed {
				m.idleMarkActive(gvpn, now)
			}
		}
		if rng.Intn(3) == 0 {
			read(t, step, &tr.store, tr, m, &cov)
		}
	}
	read(t, -1, &tr.store, tr, m, &cov)
	if cov.resorts == 0 {
		t.Fatalf("sequence never re-sorted: %+v", cov)
	}
}

func replayPEBS(t *testing.T, seed uint64, gvpnOf layout, span uint64) {
	rng := simrand.New(seed)
	tr := &pebsTracker{}
	tr.store.reset()
	m := newMapModel()
	var cov coverage
	evicted := make(map[uint64]bool)
	for step := 0; step < 400; step++ {
		now := sim.Time(step) * sim.Millisecond
		// Samples arrive in access order, not address order.
		for i := rng.Intn(12); i > 0; i-- {
			gvpn := gvpnOf(rng.Uint64n(span))
			if evicted[gvpn] {
				cov.resampled++
				delete(evicted, gvpn)
			}
			tr.sample(gvpn, now)
			m.pebsSample(gvpn, now)
		}
		if rng.Intn(2) == 0 {
			for gvpn, c := range m.acc {
				if c*pebsDecay < pebsEvict {
					evicted[gvpn] = true
					cov.evicted++
				}
			}
			tr.decay()
			m.pebsDecay()
		}
		if rng.Intn(3) == 0 {
			read(t, step, &tr.store, tr, m, &cov)
		}
	}
	read(t, -1, &tr.store, tr, m, &cov)
	if cov.resorts == 0 || cov.evicted == 0 || cov.resampled == 0 {
		t.Fatalf("sequence missed a path: %+v", cov)
	}
}
