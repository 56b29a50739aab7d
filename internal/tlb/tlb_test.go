package tlb

import (
	"slices"
	"testing"
	"testing/quick"

	"demeter/internal/simrand"
)

func mustNew(t *testing.T, entries, ways int) *TLB {
	t.Helper()
	tl, err := New(entries, ways)
	if err != nil {
		t.Fatalf("New(%d,%d): %v", entries, ways, err)
	}
	return tl
}

func TestMissThenHit(t *testing.T) {
	tl := mustNew(t, 16, 4)
	if _, ok := tl.Lookup(100); ok {
		t.Fatal("hit on empty TLB")
	}
	tl.Insert(100, 7)
	hpfn, ok := tl.Lookup(100)
	if !ok || hpfn != 7 {
		t.Fatalf("lookup = %d,%v", hpfn, ok)
	}
	s := tl.Stats()
	if s.Lookups != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInsertUpdatesInPlace(t *testing.T) {
	tl := mustNew(t, 16, 4)
	tl.Insert(5, 1)
	tl.Insert(5, 2)
	hpfn, ok := tl.Lookup(5)
	if !ok || hpfn != 2 {
		t.Fatalf("lookup = %d,%v", hpfn, ok)
	}
	if tl.Occupied() != 1 {
		t.Fatalf("occupied = %d", tl.Occupied())
	}
}

func TestEvictionWithinSet(t *testing.T) {
	tl := mustNew(t, 8, 2) // 4 sets, 2 ways
	// Keys 0, 4, 8 all map to set 0. Third insert evicts.
	tl.Insert(0, 10)
	tl.Insert(4, 14)
	tl.Insert(8, 18)
	if tl.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", tl.Stats().Evictions)
	}
	if tl.Occupied() != 2 {
		t.Fatalf("occupied = %d", tl.Occupied())
	}
	// 8 must be cached; exactly one of 0/4 survived.
	if _, ok := tl.Lookup(8); !ok {
		t.Fatal("most recent insert evicted")
	}
}

func TestFlushSingle(t *testing.T) {
	tl := mustNew(t, 16, 4)
	tl.Insert(3, 30)
	tl.Insert(4, 40)
	tl.FlushSingle(3)
	if _, ok := tl.Lookup(3); ok {
		t.Fatal("entry survived single flush")
	}
	if _, ok := tl.Lookup(4); !ok {
		t.Fatal("single flush removed unrelated entry")
	}
	// Counter counts instructions even when nothing matches.
	tl.FlushSingle(999)
	if tl.Stats().SingleFlushes != 2 {
		t.Fatalf("single flushes = %d", tl.Stats().SingleFlushes)
	}
}

func TestFlushAll(t *testing.T) {
	tl := mustNew(t, 64, 4)
	for i := uint64(0); i < 32; i++ {
		tl.Insert(i, i)
	}
	tl.FlushAll()
	if tl.Occupied() != 0 {
		t.Fatalf("occupied = %d after FlushAll", tl.Occupied())
	}
	if tl.Stats().FullFlushes != 1 {
		t.Fatalf("full flushes = %d", tl.Stats().FullFlushes)
	}
}

func TestBadGeometryReturnsError(t *testing.T) {
	for _, g := range [][2]int{{0, 1}, {7, 2}, {24, 2}, {-8, 2}} {
		if tl, err := New(g[0], g[1]); err == nil {
			t.Errorf("New(%d,%d) = %v, want error", g[0], g[1], tl)
		}
	}
}

func TestHitRate(t *testing.T) {
	tl := mustNew(t, 16, 4)
	if tl.Stats().HitRate() != 0 {
		t.Fatal("idle hit rate should be 0")
	}
	tl.Insert(1, 1)
	tl.Lookup(1)
	tl.Lookup(2)
	if got := tl.Stats().HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v", got)
	}
}

func TestResetStatsKeepsEntries(t *testing.T) {
	tl := mustNew(t, 16, 4)
	tl.Insert(1, 1)
	tl.Lookup(1)
	tl.ResetStats()
	if tl.Stats().Lookups != 0 {
		t.Fatal("stats not reset")
	}
	if _, ok := tl.Lookup(1); !ok {
		t.Fatal("ResetStats dropped cached entries")
	}
}

// A small working set must achieve a high hit rate; a working set far
// larger than the TLB must mostly miss. This is the mechanism that turns
// flush counts into runtime in every experiment.
func TestHitRateTracksWorkingSet(t *testing.T) {
	src := simrand.New(1)
	run := func(workingSet uint64) float64 {
		tl := NewDefault()
		for i := 0; i < 200000; i++ {
			p := src.Uint64n(workingSet)
			if _, ok := tl.Lookup(p); !ok {
				tl.Insert(p, p)
			}
		}
		return tl.Stats().HitRate()
	}
	small := run(256)    // fits easily
	large := run(100000) // ~65x capacity
	if small < 0.95 {
		t.Errorf("small working set hit rate = %v, want > 0.95", small)
	}
	if large > 0.2 {
		t.Errorf("large working set hit rate = %v, want < 0.2", large)
	}
}

func TestFullFlushCausesMissStorm(t *testing.T) {
	tl := NewDefault()
	for i := uint64(0); i < 1000; i++ {
		if _, ok := tl.Lookup(i); !ok {
			tl.Insert(i, i)
		}
	}
	tl.ResetStats()
	// Warm re-touch: all hits.
	for i := uint64(0); i < 1000; i++ {
		tl.Lookup(i)
	}
	warm := tl.Stats().Hits
	tl.FlushAll()
	tl.ResetStats()
	for i := uint64(0); i < 1000; i++ {
		tl.Lookup(i)
	}
	cold := tl.Stats().Hits
	if warm < 900 {
		t.Fatalf("warm hits = %d", warm)
	}
	if cold != 0 {
		t.Fatalf("cold hits after FlushAll = %d", cold)
	}
}

func TestPropertyLookupNeverReturnsStaleAfterFlush(t *testing.T) {
	err := quick.Check(func(keys []uint16) bool {
		tl, err := New(64, 4)
		if err != nil {
			return false
		}
		for _, k := range keys {
			tl.Insert(uint64(k), uint64(k)+1)
			tl.FlushSingle(uint64(k))
			if _, ok := tl.Lookup(uint64(k)); ok {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFlushAllThenRefillServesNewFrame pins invept against the value
// plane as well as the tag plane: a full flush must destroy the
// translation, and a post-flush refill of the same page to a different
// frame must serve the new frame, never resurrect the old one.
func TestFlushAllThenRefillServesNewFrame(t *testing.T) {
	tl := NewDefault()
	tl.Insert(42, 1000)
	if v, ok := tl.Lookup(42); !ok || v != 1000 {
		t.Fatalf("Lookup(42) = %d, %v before flush", v, ok)
	}
	tl.FlushAll()
	if v, ok := tl.Lookup(42); ok {
		t.Fatalf("Lookup(42) = %d after FlushAll; entry survived invept", v)
	}
	tl.Insert(42, 2000)
	if v, ok := tl.Lookup(42); !ok || v != 2000 {
		t.Fatalf("Lookup(42) = %d, %v after refill, want 2000", v, ok)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	tl := NewDefault()
	tl.Insert(42, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Lookup(42)
	}
}

// TestFlushAllResetsReplacementState pins the invept model: a full flush
// empties every set, so the per-set round-robin cursors must reset too.
// Replaying an identical insert sequence after a flush must pick the same
// eviction victims — and leave the same survivors — as a fresh TLB.
func TestFlushAllResetsReplacementState(t *testing.T) {
	const entries, ways = 8, 2 // 4 sets
	load := func(tl *TLB) {
		// Keys 0,4,8,12 all map to set 0: two fills then two evictions,
		// advancing set 0's cursor.
		for _, k := range []uint64{0, 4, 8, 12, 1, 5, 9} {
			tl.Insert(k, k+100)
		}
	}
	survivors := func(tl *TLB) map[uint64]uint64 {
		got := map[uint64]uint64{}
		tl.Scan(func(gvpn, hpfn uint64) bool {
			got[gvpn] = hpfn
			return true
		})
		return got
	}

	flushed := mustNew(t, entries, ways)
	load(flushed) // advance cursors away from their reset position
	flushed.FlushAll()
	flushed.ResetStats()
	load(flushed)

	fresh := mustNew(t, entries, ways)
	load(fresh)

	fs, gs := survivors(fresh), survivors(flushed)
	if len(fs) != len(gs) {
		t.Fatalf("entry counts differ: fresh %d, flushed %d", len(fs), len(gs))
	}
	for k, v := range fs {
		if gs[k] != v {
			t.Errorf("after flush, key %d → %d; fresh TLB has %d (stale replacement cursor)", k, gs[k], v)
		}
	}
	if f, g := fresh.Stats(), flushed.Stats(); f != g {
		t.Errorf("stats diverge: fresh %+v, flushed %+v", f, g)
	}
}

// refFlushAll is FlushAll without the skip: it clears every plane on
// every call.
func refFlushAll(t *TLB) {
	t.stats.FullFlushes++
	clear(t.keys)
	clear(t.vals)
	clear(t.next)
}

// entries lists the valid entries in Scan order.
func entries(tl *TLB) [][2]uint64 {
	var out [][2]uint64
	tl.Scan(func(gvpn, hpfn uint64) bool {
		out = append(out, [2]uint64{gvpn, hpfn})
		return true
	})
	return out
}

// TestFlushAllSkipMatchesAlwaysClearing replays seeded sequences of every
// mutating call against a reference TLB whose full flush always clears,
// and requires the two to stay indistinguishable after every call. The
// sequences favour FlushAll and ResetStats right after one another, so
// back-to-back flushes, flushes after a stats reset and flushes after a
// lone fill or eviction all occur.
func TestFlushAllSkipMatchesAlwaysClearing(t *testing.T) {
	const keySpace = 48 // 4 sets × 2 ways: fills, hits and evictions
	for seed := uint64(1); seed <= 20; seed++ {
		rng := simrand.New(seed)
		got, ref := mustNew(t, 8, 2), mustNew(t, 8, 2)
		skipped := 0
		for step := 0; step < 3000; step++ {
			gvpn := rng.Uint64n(keySpace)
			var op string
			switch r := rng.Intn(16); {
			case r < 6:
				op = "Insert"
				hpfn := rng.Uint64n(1 << 20)
				got.Insert(gvpn, hpfn)
				ref.Insert(gvpn, hpfn)
			case r < 10:
				op = "Lookup"
				gh, gok := got.Lookup(gvpn)
				rh, rok := ref.Lookup(gvpn)
				if gh != rh || gok != rok {
					t.Fatalf("seed %d step %d: Lookup(%d) = %d,%v, reference %d,%v", seed, step, gvpn, gh, gok, rh, rok)
				}
			case r < 12:
				op = "FlushSingle"
				got.FlushSingle(gvpn)
				ref.FlushSingle(gvpn)
			case r < 14:
				op = "FlushAll"
				if got.cleared {
					skipped++
				}
				got.FlushAll()
				refFlushAll(ref)
			default:
				op = "ResetStats"
				got.ResetStats()
				ref.ResetStats()
			}
			if g, r := got.Stats(), ref.Stats(); g != r {
				t.Fatalf("seed %d step %d (%s): stats %+v, reference %+v", seed, step, op, g, r)
			}
			if g, r := got.Occupied(), ref.Occupied(); g != r {
				t.Fatalf("seed %d step %d (%s): %d entries, reference %d", seed, step, op, g, r)
			}
			if ge, re := entries(got), entries(ref); !slices.Equal(ge, re) {
				t.Fatalf("seed %d step %d (%s): Scan = %v, reference %v", seed, step, op, ge, re)
			}
			if !slices.Equal(got.next, ref.next) {
				t.Fatalf("seed %d step %d (%s): cursors %v, reference %v", seed, step, op, got.next, ref.next)
			}
		}
		if skipped == 0 {
			t.Fatalf("seed %d: no flush took the skip", seed)
		}
	}
}

func BenchmarkFlushAll(b *testing.B) {
	// empty: nothing filled since the last clear, so the flush skips it.
	b.Run("empty", func(b *testing.B) {
		tl := NewDefault()
		for i := 0; i < b.N; i++ {
			tl.FlushAll()
		}
	})
	// full: every entry filled before each flush, which must clear.
	b.Run("full", func(b *testing.B) {
		tl := NewDefault()
		n := uint64(len(tl.keys))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for g := uint64(0); g < n; g++ {
				tl.Insert(g, g)
			}
			b.StartTimer()
			tl.FlushAll()
		}
	})
}
