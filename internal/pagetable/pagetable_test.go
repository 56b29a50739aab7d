package pagetable

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestMapLookupUnmap(t *testing.T) {
	pt := New()
	if pt.Lookup(42) != nil {
		t.Fatal("lookup on empty table should be nil")
	}
	pt.Map(42, 7)
	e := pt.Lookup(42)
	if e == nil || e.Value() != 7 || !e.Present() {
		t.Fatalf("entry = %+v", e)
	}
	if pt.Mapped() != 1 {
		t.Fatalf("mapped = %d", pt.Mapped())
	}
	v, dirty := pt.Unmap(42)
	if v != 7 || dirty {
		t.Fatalf("unmap = %d,%v", v, dirty)
	}
	if pt.Lookup(42) != nil || pt.Mapped() != 0 {
		t.Fatal("entry survived unmap")
	}
}

func TestDoubleMapPanics(t *testing.T) {
	pt := New()
	pt.Map(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double map did not panic")
		}
	}()
	pt.Map(1, 2)
}

func TestUnmapMissingPanics(t *testing.T) {
	pt := New()
	defer func() {
		if recover() == nil {
			t.Fatal("unmap of missing key did not panic")
		}
	}()
	pt.Unmap(5)
}

func TestAccessedDirtyBits(t *testing.T) {
	pt := New()
	e := pt.Map(10, 20)
	if e.Accessed() || e.Dirty() {
		t.Fatal("fresh entry has A/D set")
	}
	e.MarkAccessed()
	e.MarkDirty()
	if !e.Accessed() || !e.Dirty() {
		t.Fatal("A/D bits not set")
	}
	e.ClearAccessed()
	if e.Accessed() || !e.Dirty() {
		t.Fatal("ClearAccessed should only clear A")
	}
	_, dirty := pt.Unmap(10)
	if !dirty {
		t.Fatal("unmap should report dirty state")
	}
}

func TestRemapClearsBitsAndReturnsOld(t *testing.T) {
	pt := New()
	e := pt.Map(3, 100)
	e.MarkAccessed()
	e.MarkDirty()
	old := pt.Remap(3, 200)
	if old != 100 {
		t.Fatalf("old = %d", old)
	}
	e = pt.Lookup(3)
	if e.Value() != 200 || e.Accessed() || e.Dirty() {
		t.Fatalf("after remap: %+v", e)
	}
}

func TestRemapMissingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("remap of missing key did not panic")
		}
	}()
	New().Remap(1, 2)
}

func TestScanOrderAndCount(t *testing.T) {
	pt := New()
	// Keys across multiple blocks, inserted out of order.
	keys := []uint64{5000, 3, 512, 511, 1 << 20}
	for _, k := range keys {
		pt.Map(k, k*2)
	}
	var got []uint64
	n := pt.Scan(func(key uint64, e *Entry) bool {
		got = append(got, key)
		if e.Value() != key*2 {
			t.Fatalf("value mismatch at %d", key)
		}
		return true
	})
	if n != len(keys) {
		t.Fatalf("visited = %d", n)
	}
	want := []uint64{3, 511, 512, 5000, 1 << 20}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order = %v", got)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	pt := New()
	for i := uint64(0); i < 100; i++ {
		pt.Map(i, i)
	}
	n := pt.Scan(func(key uint64, e *Entry) bool { return key < 9 })
	if n != 10 {
		t.Fatalf("visited = %d, want 10", n)
	}
}

func TestScanRange(t *testing.T) {
	pt := New()
	for i := uint64(0); i < 2000; i += 2 {
		pt.Map(i, i)
	}
	var got []uint64
	pt.ScanRange(500, 520, func(key uint64, e *Entry) bool {
		got = append(got, key)
		return true
	})
	want := []uint64{500, 502, 504, 506, 508, 510, 512, 514, 516, 518}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
	if pt.ScanRange(10, 10, func(uint64, *Entry) bool { return true }) != 0 {
		t.Fatal("empty range should visit nothing")
	}
}

func TestBlockReclaimedWhenEmpty(t *testing.T) {
	pt := New()
	pt.Map(1000, 1)
	pt.Map(1001, 2)
	pt.Unmap(1000)
	pt.Unmap(1001)
	if len(pt.blocks) != 0 {
		t.Fatalf("empty leaf block not reclaimed: %d blocks", len(pt.blocks))
	}
}

func TestWalkCostConstants(t *testing.T) {
	// The 2D walk must cost n^2+2n for n=4 levels; this is the arithmetic
	// §2.1 builds on and changing it silently would skew every experiment.
	if Walk1DRefs != 4 || Walk2DRefs != Walk1DRefs*Walk1DRefs+2*Walk1DRefs {
		t.Fatalf("walk cost constants inconsistent: 1D=%d 2D=%d", Walk1DRefs, Walk2DRefs)
	}
}

func TestPropertyMappedCountMatchesScan(t *testing.T) {
	err := quick.Check(func(ops []uint16) bool {
		pt := New()
		live := make(map[uint64]bool)
		for _, op := range ops {
			key := uint64(op % 1024)
			if live[key] {
				pt.Unmap(key)
				delete(live, key)
			} else {
				pt.Map(key, key)
				live[key] = true
			}
		}
		n := pt.Scan(func(uint64, *Entry) bool { return true })
		return uint64(n) == pt.Mapped() && len(live) == n
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScanFrom(t *testing.T) {
	pt := New()
	for i := uint64(0); i < 100; i += 2 {
		pt.Map(i, i)
	}
	// Bounded scan from the middle.
	var got []uint64
	visited, next := pt.ScanFrom(10, 5, func(key uint64, e *Entry) bool {
		got = append(got, key)
		return true
	})
	if visited != 5 || len(got) != 5 || got[0] != 10 || got[4] != 18 {
		t.Fatalf("visited=%d got=%v next=%d", visited, got, next)
	}
	if next != 20 {
		t.Fatalf("next = %d, want 20", next)
	}
	// Resume to the end: wraps to 0.
	visited, next = pt.ScanFrom(next, 1000, func(uint64, *Entry) bool { return true })
	if visited != 40 || next != 0 {
		t.Fatalf("tail: visited=%d next=%d", visited, next)
	}
	// Early stop positions the cursor after the stopping key.
	_, next = pt.ScanFrom(0, 1000, func(key uint64, e *Entry) bool { return key < 6 })
	if next != 7 {
		t.Fatalf("early stop next = %d", next)
	}
	// Zero budget is a no-op.
	if v, n := pt.ScanFrom(4, 0, nil); v != 0 || n != 4 {
		t.Fatalf("zero budget: %d %d", v, n)
	}
}

func TestHintFlagLifecycle(t *testing.T) {
	pt := New()
	e := pt.Map(1, 2)
	if e.Hinted() {
		t.Fatal("fresh entry hinted")
	}
	e.MarkHint()
	if !e.Hinted() {
		t.Fatal("hint not set")
	}
	// Remap (migration) clears the hint along with A/D.
	pt.Remap(1, 3)
	if pt.Lookup(1).Hinted() {
		t.Fatal("remap kept the hint")
	}
	e = pt.Lookup(1)
	e.MarkHint()
	e.ClearHint()
	if e.Hinted() {
		t.Fatal("hint not cleared")
	}
}

// scanKeys returns the keys Scan, ScanFrom and ScanRange visit over the
// whole table; all three must agree.
func scanKeys(t *testing.T, pt *Table) []uint64 {
	t.Helper()
	var all, from, rng []uint64
	pt.Scan(func(key uint64, _ *Entry) bool { all = append(all, key); return true })
	pt.ScanFrom(0, int(pt.Mapped())+1, func(key uint64, _ *Entry) bool { from = append(from, key); return true })
	pt.ScanRange(0, ^uint64(0), func(key uint64, _ *Entry) bool { rng = append(rng, key); return true })
	if !slices.Equal(all, from) || !slices.Equal(all, rng) {
		t.Fatalf("Scan %v, ScanFrom %v, ScanRange %v disagree", all, from, rng)
	}
	return all
}

// The cached block order follows every Map that adds a block and every
// Unmap that drops one: after each, a scan visits exactly the freshly
// sorted list of mapped keys.
func TestScanOrderFollowsBlockChanges(t *testing.T) {
	pt := New()
	mapped := map[uint64]bool{}
	check := func(step string) {
		t.Helper()
		want := make([]uint64, 0, len(mapped))
		for k := range mapped {
			want = append(want, k)
		}
		slices.Sort(want)
		if got := scanKeys(t, pt); !slices.Equal(got, want) {
			t.Fatalf("after %s: scan order %v, want %v", step, got, want)
		}
	}
	add := func(k uint64) { pt.Map(k, k); mapped[k] = true }
	drop := func(k uint64) { pt.Unmap(k); delete(mapped, k) }
	for _, k := range []uint64{5 << blockShift, 9<<blockShift + 3, 7 << blockShift} {
		add(k)
	}
	check("the initial maps")
	add(1<<blockShift + 100) // a new lowest block
	check("a map that adds a low block")
	add(8<<blockShift + 1) // a new block between two others
	check("a map that adds a middle block")
	add(7<<blockShift + 2) // same block: no change in block order
	check("a map into an existing block")
	drop(8<<blockShift + 1)
	check("an unmap that drops a middle block")
	drop(7 << blockShift)
	check("an unmap that leaves its block")
	drop(1<<blockShift + 100)
	add(20 << blockShift)
	check("a drop then an add")
	for k := range mapped {
		drop(k)
	}
	check("unmapping everything")
	add(3)
	check("a map into the emptied table")
}

// A scan keeps iterating the block order it started with, even when its
// callback maps a new block and a nested scan rebuilds the order.
func TestScanSnapshotSurvivesNestedRebuild(t *testing.T) {
	pt := New()
	for _, k := range []uint64{4 << blockShift, 5 << blockShift, 6 << blockShift} {
		pt.Map(k, k)
	}
	var outer []uint64
	pt.Scan(func(key uint64, _ *Entry) bool {
		outer = append(outer, key)
		if len(outer) == 1 {
			pt.Map(1<<blockShift, 1) // sorts before every block
			if n := pt.Scan(func(uint64, *Entry) bool { return true }); n != 4 {
				t.Fatalf("nested scan visited %d, want 4", n)
			}
		}
		return true
	})
	if want := []uint64{4 << blockShift, 5 << blockShift, 6 << blockShift}; !slices.Equal(outer, want) {
		t.Fatalf("outer scan visited %v, want %v", outer, want)
	}
	if got := scanKeys(t, pt); got[0] != 1<<blockShift || len(got) != 4 {
		t.Fatalf("scan after the callback's map = %v", got)
	}
}
