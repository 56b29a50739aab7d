package tmm

import (
	"fmt"
	"slices"
	"testing"

	"demeter/internal/hypervisor"
	"demeter/internal/obs"
	"demeter/internal/pagetable"
	"demeter/internal/sim"
	"demeter/internal/simrand"
	"demeter/internal/workload"
)

// randomPages returns n pages with distinct, shuffled gpfns and scores
// drawn from levels values, so that few levels give heavy ties.
func randomPages(rng *simrand.Source, n, levels int) []pageScore {
	ps := make([]pageScore, n)
	for i := range ps {
		ps[i] = pageScore{gpfn: uint64(i) * 3, score: float64(rng.Intn(levels)) / 2}
	}
	rng.Shuffle(n, func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps
}

// Every read of the ordered view returns the page a full sort puts at
// that index, whatever the order of the reads: the top and the bottom
// interleave at random, each runs on past the other's boundary to the far
// end, and random indexes fall in between. Low depth limits force the
// sort-the-open-range fallback.
func TestOrderedPagesMatchesFullSort(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 4096} {
		for _, levels := range []int{1, 3, 1 << 20} {
			for _, limit := range []int{-1, 0, 1, 3} {
				for seed := uint64(1); seed <= 8; seed++ {
					name := fmt.Sprintf("n%d/levels%d/limit%d/seed%d", n, levels, limit, seed)
					t.Run(name, func(t *testing.T) {
						rng := simrand.New(seed)
						ps := randomPages(rng, n, levels)
						want := slices.Clone(ps)
						slices.SortFunc(want, hotterPage)
						var v orderedPages
						v.reset(ps)
						if limit >= 0 {
							v.limit = limit
						}
						check := func(i int) {
							if got := v.at(i); got != want[i] {
								t.Fatalf("at(%d) = %+v, full sort has %+v", i, got, want[i])
							}
							if len(v.fences) > 4*(v.limit+1) {
								t.Fatalf("%d fences at depth limit %d", len(v.fences), v.limit)
							}
						}
						for top, bottom := 0, n-1; top < n || bottom >= 0; {
							switch r := rng.Intn(8); {
							case r < 3 && top < n:
								check(top)
								top++
							case r < 6 && bottom >= 0:
								check(bottom)
								bottom--
							case r == 6 && n > 0:
								check(rng.Intn(n))
							case r == 7 && top > 0:
								check(top - 1) // a repeated read
							}
						}
						if !slices.Equal(ps, want) {
							t.Fatal("reading every index left the list unsorted")
						}
					})
				}
			}
		}
	}
}

// fullSortRound is VTMM.round as it was before the ordered view: it
// sorts every counted page, then promotes from the top and demotes from
// the bottom of the sorted list. It is the reference the new round must
// match, promotion for promotion.
func fullSortRound(p *VTMM) {
	vm := p.vm
	cm := &vm.Machine.Cost
	fastHost := vm.Machine.Topo.FastNode()
	slowHost := vm.Machine.Topo.SlowNode()

	cleared := 0
	visited, next := vm.EPT.ScanFrom(p.cursor, p.Cfg.scanBudget(vm.EPT.Mapped()), func(gpfn uint64, e *pagetable.Entry) bool {
		if e.Accessed() {
			e.ClearAccessed()
			p.counts.bump(gpfn)
			cleared++
		}
		return true
	})
	p.cursor = next
	var flushCost sim.Duration
	if cleared > 0 {
		flushCost += vm.FlushFull()
	}
	dirtyCleared := 0
	_, p.dirtyCursor = vm.EPT.ScanFrom(p.dirtyCursor, vtmmDirtyResetBatch, func(gpfn uint64, e *pagetable.Entry) bool {
		if e.Dirty() {
			e.ClearDirty()
			dirtyCleared++
		}
		return true
	})
	if dirtyCleared > 0 {
		flushCost += vm.FlushFull()
	}
	p.stats.Rounds++
	p.PMLExits = p.pml.Stats().Exits

	scanCost := sim.Duration(visited+vtmmDirtyResetBatch) * cm.ScanPTECost
	vm.ChargeHost(hypervisor.CompTrack, scanCost+flushCost)

	pages := p.pages[:0]
	p.counts.walk(true, func(gpfn uint64, score float64) {
		pages = append(pages, pageScore{gpfn, score})
	})
	p.pages = pages
	slices.SortFunc(pages, func(a, b pageScore) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		case a.gpfn < b.gpfn:
			return -1
		case a.gpfn > b.gpfn:
			return 1
		}
		return 0
	})
	n := len(pages)
	sortCost := sim.Duration(0)
	if n > 1 {
		logN := 0
		for v := n; v > 1; v >>= 1 {
			logN++
		}
		sortCost = sim.Duration(n*logN) * hypervisor.PTEOpCost
	}
	vm.ChargeHost(hypervisor.CompClassify, sortCost)

	var migrateCost sim.Duration
	budget := int(float64(fastHost.Frames()) * vtmmHotFraction)
	if budget > p.Cfg.MigrationBatch {
		budget = p.Cfg.MigrationBatch
	}
	moved := 0
	for _, ps := range pages {
		if moved >= budget {
			break
		}
		he := vm.EPT.Lookup(ps.gpfn)
		if he == nil || fastHost.Contains(hostFrameOf(he)) {
			continue
		}
		if fastHost.FreeFrames() == 0 {
			demoted := false
			for i := len(pages) - 1; i > 0; i-- {
				ce := vm.EPT.Lookup(pages[i].gpfn)
				if ce == nil || !fastHost.Contains(hostFrameOf(ce)) {
					continue
				}
				if cost, ok := vm.HostMigrate(pages[i].gpfn, slowHost.ID); ok {
					migrateCost += cost
					p.stats.Demoted++
					demoted = true
				}
				pages = pages[:i]
				break
			}
			if !demoted {
				break
			}
		}
		if cost, ok := vm.HostMigrate(ps.gpfn, fastHost.ID); ok {
			migrateCost += cost
			p.stats.Promoted++
			moved++
		}
	}
	vm.ChargeHost(hypervisor.CompMigrate, migrateCost)
}

// migrations runs one round on vm and returns the gpfns it promoted and
// demoted, each in migration order, read from the machine's journal.
func migrations(t *testing.T, vm *hypervisor.VM, round func()) (promoted, demoted []uint64) {
	t.Helper()
	j := obs.NewJournal(1 << 14)
	vm.Machine.Obs = &obs.Obs{Journal: j}
	round()
	vm.Machine.Obs = nil
	if j.Dropped() != 0 {
		t.Fatalf("the journal dropped %d events", j.Dropped())
	}
	fast := uint64(vm.Machine.Topo.FastNode().ID)
	for _, e := range j.Events() {
		switch {
		case e.Type != obs.EvMigrateCommit:
		case e.Arg2 == fast:
			promoted = append(promoted, e.Arg1)
		default:
			demoted = append(demoted, e.Arg1)
		}
	}
	return promoted, demoted
}

// Two identical VMs, one managed by VTMM.round and one by the full-sort
// reference, promote and demote the same gpfns in the same order, round
// by round. Touching every slow page between rounds keeps both hot and
// cold pages on the move. The small rig's promotions read past the pages
// its demotions have read, so the two ends of the order cross there.
func TestVTMMRoundMatchesFullSortRound(t *testing.T) {
	rigs := []struct{ fmem, smem, footprint uint64 }{
		{4096, 65536, 8192},
		{256, 1024, 1000},
	}
	for _, r := range rigs {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("fmem%d/seed%d", r.fmem, seed), func(t *testing.T) {
				type side struct {
					eng *sim.Engine
					vm  *hypervisor.VM
					p   *VTMM
				}
				cfg := testVTMM()
				cfg.ScanPeriod = 1000 * sim.Second // rounds run only when called
				var sides [2]side
				for i := range sides {
					wl := workload.Must(workload.NewGUPS(r.footprint, 10_000_000, seed))
					eng, vm, x := rigWith(t, r.fmem, r.smem, wl)
					p := NewVTMM(cfg)
					if err := p.Attach(eng, vm); err != nil {
						t.Fatal(err)
					}
					defer p.Detach()
					x.Start()
					sides[i] = side{eng, vm, p}
				}
				var promotedAll, demotedAll int
				for round := 0; round < 40; round++ {
					var proms, demos [2][]uint64
					for i, s := range sides {
						s.eng.Run(s.eng.Now() + 2*sim.Millisecond)
						if round%2 == 1 {
							touchSlow(s.vm)
						}
						next := s.p.round
						if i == 1 {
							next = func() { fullSortRound(s.p) }
						}
						proms[i], demos[i] = migrations(t, s.vm, next)
					}
					if !slices.Equal(proms[0], proms[1]) || !slices.Equal(demos[0], demos[1]) {
						t.Fatalf("round %d: promoted %v and demoted %v, the full sort promoted %v and demoted %v",
							round, proms[0], demos[0], proms[1], demos[1])
					}
					if a, b := sides[0].p.Stats(), sides[1].p.Stats(); a != b {
						t.Fatalf("round %d: stats %+v, the full sort's %+v", round, a, b)
					}
					if a, b := sides[0].vm.Machine.HostLedger.Sum(), sides[1].vm.Machine.HostLedger.Sum(); a != b {
						t.Fatalf("round %d: host CPU charged %v, the full sort's %v", round, a, b)
					}
					promotedAll += len(proms[0])
					demotedAll += len(demos[0])
				}
				if promotedAll == 0 || demotedAll == 0 {
					t.Fatalf("promoted %d and demoted %d pages over the run; want both", promotedAll, demotedAll)
				}
			})
		}
	}
}
