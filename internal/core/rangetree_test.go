package core

import (
	"testing"
	"testing/quick"

	"demeter/internal/simrand"
)

// smallParams makes splits attainable with few samples in unit tests.
func smallParams() Params {
	return Params{SplitThreshold: 2, GranularityPages: 4}
}

func TestNewRangeTreeSkipsEmptyAndSorts(t *testing.T) {
	tr := NewRangeTree(smallParams(),
		Region{StartPage: 1000, EndPage: 2000},
		Region{StartPage: 0, EndPage: 0}, // empty: skipped
		Region{StartPage: 100, EndPage: 200},
	)
	if tr.Leaves() != 2 {
		t.Fatalf("leaves = %d", tr.Leaves())
	}
	ranked := tr.Ranked()
	if len(ranked) != 2 {
		t.Fatalf("ranked = %v", ranked)
	}
}

func TestOverlappingRegionsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overlap did not panic")
		}
	}()
	NewRangeTree(smallParams(), Region{0, 100}, Region{50, 150})
}

func TestZeroGranularityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero granularity did not panic")
		}
	}()
	NewRangeTree(Params{}, Region{0, 100})
}

func TestRecordOutsideRegionsIgnored(t *testing.T) {
	tr := NewRangeTree(smallParams(), Region{100, 200})
	tr.Record(50)
	tr.Record(500)
	if tr.Ignored() != 2 {
		t.Fatalf("ignored = %d", tr.Ignored())
	}
	if tr.Ranked()[0].Count != 0 {
		t.Fatal("out-of-region samples affected counts")
	}
}

func TestSplitRefinesTowardHotspot(t *testing.T) {
	// Region of 4096 pages; hot spot [2048, 2176) (128 pages). Feed
	// samples and run epochs until the hottest leaf tightly covers the
	// hot spot.
	tr := NewRangeTree(DefaultParams(), Region{0, 4096})
	src := simrand.New(1)
	for epoch := 0; epoch < 40; epoch++ {
		for i := 0; i < 2000; i++ {
			if src.Float64() < 0.9 {
				tr.Record(2048 + src.Uint64n(128))
			} else {
				tr.Record(src.Uint64n(4096))
			}
		}
		tr.EndEpoch(4)
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
	}
	top := tr.Ranked()[0]
	if top.StartPage > 2048 || top.EndPage < 2176 {
		t.Fatalf("hottest leaf [%d,%d) does not cover hotspot [2048,2176)", top.StartPage, top.EndPage)
	}
	if top.Pages() > 1024 {
		t.Fatalf("hottest leaf still %d pages; refinement too coarse", top.Pages())
	}
	if tr.Leaves() > 50 {
		t.Fatalf("%d leaves; the paper expects fewer than 50", tr.Leaves())
	}
}

func TestSplitRespectsGranularity(t *testing.T) {
	p := smallParams()
	tr := NewRangeTree(p, Region{0, 1024})
	src := simrand.New(2)
	for epoch := 0; epoch < 60; epoch++ {
		for i := 0; i < 500; i++ {
			tr.Record(src.Uint64n(8)) // hammer the first 8 pages
		}
		tr.EndEpoch(1)
	}
	for _, r := range tr.Ranked() {
		if r.Pages() < p.GranularityPages {
			t.Fatalf("leaf [%d,%d) below granularity %d", r.StartPage, r.EndPage, p.GranularityPages)
		}
	}
}

func TestUniformRegionDoesNotFragment(t *testing.T) {
	tr := NewRangeTree(DefaultParams(), Region{0, 65536})
	src := simrand.New(3)
	for epoch := 0; epoch < 20; epoch++ {
		for i := 0; i < 5000; i++ {
			tr.Record(src.Uint64n(65536))
		}
		tr.EndEpoch(4)
	}
	// A perfectly uniform region gives neighbors equal counts; only the
	// initial no-neighbor split can fire. Leaf count must stay tiny.
	if tr.Leaves() > 8 {
		t.Fatalf("uniform workload fragmented into %d leaves", tr.Leaves())
	}
}

func TestDecayFadesOldHotspots(t *testing.T) {
	tr := NewRangeTree(smallParams(), Region{0, 64})
	for i := 0; i < 100; i++ {
		tr.Record(5)
	}
	tr.EndEpoch(1)
	c0 := leafCountAt(tr, 5)
	for e := 0; e < 6; e++ {
		tr.EndEpoch(1)
	}
	if got := leafCountAt(tr, 5); got >= c0/32+1 {
		t.Fatalf("count decayed only to %v from %v", got, c0)
	}
}

func leafCountAt(tr *RangeTree, page uint64) float64 {
	for _, r := range tr.Ranked() {
		if page >= r.StartPage && page < r.EndPage {
			return r.Count
		}
	}
	return -1
}

func TestMergeCollapsesColdSiblings(t *testing.T) {
	p := smallParams()
	tr := NewRangeTree(p, Region{0, 64})
	// Force a split by hammering one side.
	for i := 0; i < 100; i++ {
		tr.Record(3)
	}
	tr.EndEpoch(1)
	grown := tr.Leaves()
	if grown < 2 {
		t.Fatal("no split happened; test premise broken")
	}
	// Go cold: counts decay to ~0, but no range merges before it has
	// stayed cold for mergeEpochs epochs.
	for e := 1; e < mergeEpochs; e++ {
		tr.EndEpoch(1)
		if tr.TotalMerges() != 0 {
			t.Fatalf("merged %d epochs after the first split, before τ_merge = %d", e, mergeEpochs)
		}
	}
	// Each tree level waits mergeEpochs more before folding into its
	// parent; a 64-page region at 4-page granularity has 4 levels.
	for e := 0; e < 4*(mergeEpochs+1); e++ {
		tr.EndEpoch(1)
	}
	if tr.Leaves() != 1 {
		t.Fatalf("leaves = %d after long cold period, want 1", tr.Leaves())
	}
	if tr.TotalMerges() == 0 {
		t.Fatal("merge counter not incremented")
	}
}

func TestRankingFreqThenAge(t *testing.T) {
	tr := NewRangeTree(smallParams(), Region{0, 100}, Region{200, 300}, Region{400, 500})
	// Region 1 hottest per page; region 2 second.
	for i := 0; i < 500; i++ {
		tr.Record(250)
	}
	for i := 0; i < 100; i++ {
		tr.Record(450)
	}
	ranked := tr.Ranked()
	if ranked[0].StartPage != 200 || ranked[1].StartPage != 400 {
		t.Fatalf("ranking order wrong: %+v", ranked)
	}
	// Equal-frequency ranges tie-break by creation age (newer first);
	// all roots were created at epoch 0, so the order among the two cold
	// ones is stable.
	if ranked[2].StartPage != 0 {
		t.Fatalf("cold region misplaced: %+v", ranked[2])
	}
}

func TestEndEpochValidatesVCPUs(t *testing.T) {
	tr := NewRangeTree(smallParams(), Region{0, 64})
	defer func() {
		if recover() == nil {
			t.Fatal("EndEpoch(0) did not panic")
		}
	}()
	tr.EndEpoch(0)
}

func TestPropertyInvariantsUnderRandomLoad(t *testing.T) {
	err := quick.Check(func(seed uint64, epochs uint8) bool {
		src := simrand.New(seed)
		tr := NewRangeTree(smallParams(), Region{0, 512}, Region{1024, 1536})
		for e := 0; e < int(epochs%30); e++ {
			n := src.Intn(300)
			for i := 0; i < n; i++ {
				if src.Bool(0.5) {
					tr.Record(src.Uint64n(512))
				} else {
					tr.Record(1024 + src.Uint64n(512))
				}
			}
			tr.EndEpoch(1 + src.Intn(4))
			if tr.checkInvariants() != nil {
				return false
			}
		}
		// Total pages across leaves must equal the tracked space.
		var pages uint64
		for _, r := range tr.Ranked() {
			pages += r.Pages()
		}
		return pages == 1024
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStringRendersLeaves(t *testing.T) {
	tr := NewRangeTree(smallParams(), Region{0, 64})
	if tr.String() == "" {
		t.Fatal("empty dump")
	}
}
