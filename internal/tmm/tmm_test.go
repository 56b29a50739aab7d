package tmm

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"demeter/internal/engine"
	"demeter/internal/guestos"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/pagetable"
	"demeter/internal/sim"
	"demeter/internal/simrand"
	"demeter/internal/workload"
)

// rig builds a 1-VM machine plus a GUPS executor.
func rig(t testing.TB, fmem, smem, footprint, ops uint64) (*sim.Engine, *hypervisor.VM, *engine.Executor, *workload.GUPS) {
	t.Helper()
	wl := workload.Must(workload.NewGUPS(footprint, ops, 7))
	eng, vm, x := rigWith(t, fmem, smem, wl)
	return eng, vm, x, wl
}

// rigWith builds a 1-VM machine plus an executor for wl.
func rigWith(t testing.TB, fmem, smem uint64, wl workload.Workload) (*sim.Engine, *hypervisor.VM, *engine.Executor) {
	t.Helper()
	eng := sim.NewEngine()
	m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(fmem, smem))
	vm, err := m.NewVM(hypervisor.VMConfig{
		VCPUs: 4, GuestFMEM: fmem, GuestSMEM: smem,
		FMEMBacking: 0, SMEMBacking: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, vm, engine.NewExecutor(eng, vm, wl)
}

// compressed cadences for unit tests.
func testScan() ScanConfig {
	cfg := DefaultScanConfig()
	cfg.ScanPeriod = 2 * sim.Millisecond
	return cfg
}

func testMemtis() MemtisConfig {
	cfg := DefaultMemtisConfig()
	cfg.SamplePeriod = 13
	cfg.HotThreshold = 2
	cfg.PollPeriod = 500 * sim.Microsecond
	cfg.ClassifyPeriod = 2 * sim.Millisecond
	return cfg
}

// hotFastFraction measures how much of the GUPS hot set is FMEM-resident.
func hotFastFraction(vm *hypervisor.VM, wl *workload.GUPS) float64 {
	hotStart, hotPages := wl.HotRange()
	base := wl.Region() >> 12
	inFast := 0
	for p := uint64(0); p < hotPages; p++ {
		if fast, mapped := vm.ResidentTier(base + hotStart + p); mapped && fast {
			inFast++
		}
	}
	return float64(inFast) / float64(hotPages)
}

func TestStaticDoesNothing(t *testing.T) {
	eng, vm, x, wl := rig(t, 4096, 65536, 32768, 100_000)
	s := NewStatic()
	s.Attach(eng, vm)
	defer s.Detach()
	engine.RunAll(eng, 200*sim.Second, x)
	if vm.Ledger.Sum() != 0 {
		t.Fatal("static policy charged CPU")
	}
	if f := hotFastFraction(vm, wl); f > 0.05 {
		t.Fatalf("static placement should leave the hot set in SMEM, got %.2f fast", f)
	}
}

func TestTPPPromotesHotSetWithSingleFlushesOnly(t *testing.T) {
	eng, vm, x, wl := rig(t, 4096, 65536, 32768, 1_500_000)
	p := NewTPP(testScan())
	p.Attach(eng, vm)
	defer p.Detach()
	if !engine.RunAll(eng, 200*sim.Second, x) {
		t.Fatal("did not finish")
	}
	if p.Stats().Promoted == 0 {
		t.Fatal("TPP promoted nothing")
	}
	// Fault-driven promotion converges more slowly than Demeter's range
	// swaps and equilibrates against cold-page churn; a substantial
	// fraction by run end is the expectation (Demeter's test demands 70%).
	if f := hotFastFraction(vm, wl); f < 0.35 {
		t.Fatalf("TPP left hot set %.2f fast-resident", f)
	}
	st := vm.TLB.Stats()
	if st.FullFlushes != 0 {
		t.Fatalf("guest TPP issued %d full flushes", st.FullFlushes)
	}
	if st.SingleFlushes == 0 {
		t.Fatal("A-bit clearing must issue single flushes")
	}
}

func TestTPPHUsesFullFlushes(t *testing.T) {
	eng, vm, x, _ := rig(t, 4096, 65536, 32768, 400_000)
	p := NewTPPH(testScan())
	p.Attach(eng, vm)
	defer p.Detach()
	if !engine.RunAll(eng, 200*sim.Second, x) {
		t.Fatal("did not finish")
	}
	if vm.TLB.Stats().FullFlushes == 0 {
		t.Fatal("hypervisor scanning must full-flush")
	}
	// Host-side work lands on the host ledger, not the guest's.
	if vm.Ledger.Sum() != 0 {
		t.Fatal("H-TPP charged guest CPU")
	}
	if vm.Machine.HostLedger.Sum() == 0 {
		t.Fatal("H-TPP charged no host CPU")
	}
}

// The paper's §2.3.1 headline: hypervisor-based scanning is much slower
// than the same design in the guest, and guest TPP is slower than no full
// flushes at all would allow.
func TestHypervisorTPPSlowerThanGuestTPP(t *testing.T) {
	run := func(attach func(*sim.Engine, *hypervisor.VM) func()) sim.Duration {
		eng, vm, x, _ := rig(t, 4096, 65536, 32768, 600_000)
		detach := attach(eng, vm)
		defer detach()
		if !engine.RunAll(eng, 500*sim.Second, x) {
			t.Fatal("did not finish")
		}
		return x.Runtime()
	}
	gtpp := run(func(eng *sim.Engine, vm *hypervisor.VM) func() {
		p := NewTPP(testScan())
		p.Attach(eng, vm)
		return p.Detach
	})
	htpp := run(func(eng *sim.Engine, vm *hypervisor.VM) func() {
		p := NewTPPH(testScan())
		p.Attach(eng, vm)
		return p.Detach
	})
	if htpp <= gtpp {
		t.Fatalf("H-TPP (%v) should be slower than G-TPP (%v)", htpp, gtpp)
	}
}

func TestMemtisSamplesAndPromotes(t *testing.T) {
	eng, vm, x, _ := rig(t, 4096, 65536, 32768, 600_000)
	p := NewMemtis(testMemtis())
	p.Attach(eng, vm)
	defer p.Detach()
	if !engine.RunAll(eng, 200*sim.Second, x) {
		t.Fatal("did not finish")
	}
	st := p.Stats()
	if st.Samples == 0 || st.Translated == 0 {
		t.Fatalf("Memtis collected %d samples, translated %d", st.Samples, st.Translated)
	}
	if st.Promoted == 0 {
		t.Fatal("Memtis promoted nothing")
	}
	if vm.Ledger.Total(hypervisor.CompTrack) == 0 {
		t.Fatal("Memtis kthread charged no tracking CPU")
	}
}

func TestMemtisKthreadBurnsIdleCPU(t *testing.T) {
	// Even with PEBS producing nothing (huge sample period), the polling
	// thread burns its share — the scalability problem of Figure 2.
	eng, vm, x, _ := rig(t, 4096, 65536, 16384, 100_000)
	cfg := testMemtis()
	cfg.SamplePeriod = 1 << 30
	p := NewMemtis(cfg)
	p.Attach(eng, vm)
	defer p.Detach()
	engine.RunAll(eng, 200*sim.Second, x)
	if vm.Ledger.Total(hypervisor.CompTrack) == 0 {
		t.Fatal("idle kthread should still burn CPU")
	}
}

func TestNomadPromotesWithShadows(t *testing.T) {
	eng, vm, x, wl := rig(t, 4096, 65536, 32768, 900_000)
	p := NewNomad(testScan())
	p.Attach(eng, vm)
	defer p.Detach()
	if !engine.RunAll(eng, 500*sim.Second, x) {
		t.Fatal("did not finish")
	}
	if p.Stats().Promoted == 0 {
		t.Fatal("Nomad promoted nothing")
	}
	if f := hotFastFraction(vm, wl); f < 0.3 {
		t.Fatalf("Nomad hot-set fast fraction %.2f", f)
	}
}

// GUPS writes every hot page, so each shadow is dropped before demotion.
// Silo writes a quarter of its touches and its hot window drifts: pages
// promoted late in their hot spell cool off before a write dirties them,
// and demoting those must go through the shadow path.
func TestNomadDemotesToCleanShadows(t *testing.T) {
	eng, vm, x := rigWith(t, 4096, 65536, workload.Must(workload.NewSilo(16000, 100_000, 7)))
	p := NewNomad(testScan())
	p.Attach(eng, vm)
	defer p.Detach()
	if !engine.RunAll(eng, 500*sim.Second, x) {
		t.Fatal("did not finish")
	}
	if p.Stats().Promoted == 0 {
		t.Fatal("Nomad promoted nothing")
	}
	if p.ShadowDemotions == 0 {
		t.Fatalf("none of %d demotions used a retained shadow", p.Stats().Demoted)
	}
}

// Nomad's conservatism: with the same scan cadence it promotes later than
// TPP (its deeper counter, max score 6 vs 4, saturates later), so its
// mid-run placement lags.
func TestNomadSlowerToPromoteThanTPP(t *testing.T) {
	// Compare promotion counts after a fixed simulated horizon.
	run := func(useNomad bool) uint64 {
		eng, vm, x, _ := rig(t, 4096, 65536, 32768, 10_000_000)
		var promoted func() uint64
		if useNomad {
			p := NewNomad(testScan())
			p.Attach(eng, vm)
			defer p.Detach()
			promoted = func() uint64 { return p.Stats().Promoted }
		} else {
			p := NewTPP(testScan())
			p.Attach(eng, vm)
			defer p.Detach()
			promoted = func() uint64 { return p.Stats().Promoted }
		}
		x.Start()
		eng.Run(eng.Now() + 150*sim.Millisecond)
		return promoted()
	}
	tpp := run(false)
	nomad := run(true)
	if nomad >= tpp {
		t.Fatalf("Nomad promoted %d by the horizon, TPP %d; Nomad should lag", nomad, tpp)
	}
}

// TestDoubleAttachFails: a second Attach while attached returns an error
// naming the design and leaves the first attachment managing the VM.
func TestDoubleAttachFails(t *testing.T) {
	for _, p := range []Policy{NewStatic(), NewTPP(testScan()), NewTPPH(testScan()), NewMemtis(testMemtis()), NewNomad(testScan()), NewVTMM(testVTMM())} {
		eng, vm, x, _ := rig(t, 256, 1024, 512, 200_000)
		if err := p.Attach(eng, vm); err != nil {
			t.Fatalf("%s: first attach: %v", p.Name(), err)
		}
		if err := p.Attach(eng, vm); err == nil || !strings.Contains(err.Error(), p.Name()) {
			t.Errorf("%s: double attach returned %v, want an error naming the design", p.Name(), err)
		}
		if !engine.RunAll(eng, 100*sim.Second, x) {
			t.Fatalf("%s: did not finish", p.Name())
		}
		managed := vm.Ledger.Sum() + vm.Machine.HostLedger.Sum()
		if p.Name() != "static" && managed == 0 {
			t.Errorf("%s: charged no management work after the refused attach", p.Name())
		}
		p.Detach()
	}
}

func TestDetachIsIdempotent(t *testing.T) {
	eng, vm, _, _ := rig(t, 256, 1024, 512, 1000)
	for _, p := range []Policy{NewStatic(), NewTPP(testScan()), NewTPPH(testScan()), NewMemtis(testMemtis()), NewNomad(testScan()), NewVTMM(testVTMM())} {
		p.Attach(eng, vm)
		p.Detach()
		p.Detach()
	}
}

// boardModel is the map-backed scoreboard the dense one replaced, kept
// verbatim as the oracle.
type boardModel struct {
	score map[uint64]uint8
	max   uint8
}

func (s *boardModel) observe(key uint64, accessed bool) uint8 {
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

// boardLen returns the number of keys b holds a score for.
func boardLen(b *scoreboard) int {
	n := 0
	for _, pg := range b.pages {
		for _, v := range pg {
			if v != 0 {
				n++
			}
		}
	}
	return n
}

// countsModel is the map-backed histogram Memtis and vTMM kept before
// decayCounts, as the oracle: bump adds one, and a halving round lists
// every entry in gpfn order before halving it, dropping it below 0.25.
type countsModel map[uint64]float64

func (m countsModel) round(halve bool) (visited [][2]float64) {
	keys := make([]uint64, 0, len(m))
	for g := range m {
		keys = append(keys, g)
	}
	slices.Sort(keys)
	for _, g := range keys {
		visited = append(visited, [2]float64{float64(g), m[g]})
		if halve {
			m[g] /= 2
			if m[g] < 0.25 {
				delete(m, g)
			}
		}
	}
	return visited
}

// replayBoard drives a dense scoreboard and its map model with the same
// rounds of scan observations over keys, which the caller orders like a
// page-table scan, and requires equal scores and equal entry counts
// after every round.
func replayBoard(t *testing.T, rng *simrand.Source, keys []uint64) {
	t.Helper()
	const max = 4
	b, m := newScoreboard(max), &boardModel{score: map[uint64]uint8{}, max: max}
	hot := keys[rng.Intn(len(keys))]
	saturated, evicted := 0, 0
	for round := 0; round < 60; round++ {
		// A bounded scan from a random cursor, wrapping like ScanFrom.
		start, n := rng.Intn(len(keys)), 1+rng.Intn(len(keys))
		for i := 0; i < n; i++ {
			key := keys[(start+i)%len(keys)]
			accessed := key == hot || rng.Intn(3) == 0
			before := m.score[key]
			want := m.observe(key, accessed)
			if got := b.observe(key, accessed); got != want {
				t.Fatalf("round %d: observe(%#x, %v) = %d, model %d", round, key, accessed, got, want)
			}
			if want == max && before == max {
				saturated++
			}
			if before == 1 && want == 0 {
				evicted++
			}
		}
		for _, key := range keys {
			if got, want := b.get(key), m.score[key]; got != want {
				t.Fatalf("round %d: get(%#x) = %d, model %d", round, key, got, want)
			}
		}
		if got, want := boardLen(b), len(m.score); got != want {
			t.Fatalf("round %d: %d scored keys, model %d", round, got, want)
		}
		if round%20 == 19 {
			hot = keys[rng.Intn(len(keys))]
		}
	}
	if saturated == 0 || evicted == 0 {
		t.Fatalf("replay missed a path: %d saturated, %d evicted", saturated, evicted)
	}
}

// replayCounts drives decayCounts and its map model with bursts of bumps
// and a walk per round, halving every coolEvery-th round, and requires
// the same visits, equal counts and equal entry counts after every round.
func replayCounts(t *testing.T, rng *simrand.Source, coolEvery int) {
	t.Helper()
	const frames = 700
	c, m := newDecayCounts(frames), countsModel{}
	hot := rng.Uint64n(frames - 8)
	dropped := 0
	for round := 1; round <= 120; round++ {
		for i := rng.Intn(40); i > 0; i-- {
			g := rng.Uint64n(frames)
			if rng.Intn(2) == 0 {
				g = hot + rng.Uint64n(8)
			}
			c.bump(g)
			m[g]++
		}
		halve := round%coolEvery == 0
		before := len(m)
		want := m.round(halve)
		dropped += before - len(m)
		var got [][2]float64
		c.walk(halve, func(gpfn uint64, count float64) {
			got = append(got, [2]float64{float64(gpfn), count})
		})
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: walk visited %v, model %v", round, got, want)
		}
		for g := uint64(0); g < frames; g++ {
			if c.v[g] != m[g] {
				t.Fatalf("round %d: count[%d] = %v, model %v", round, g, c.v[g], m[g])
			}
		}
		if c.len() != len(m) {
			t.Fatalf("round %d: %d counted gpfns, model %d", round, c.len(), len(m))
		}
		if round%30 == 0 {
			hot = rng.Uint64n(frames - 8)
		}
	}
	if dropped == 0 {
		t.Fatal("replay never dropped an entry")
	}
}

// TestScoreboard pins the dense per-frame stores against the map models
// they replaced: the A-bit scoreboards (saturation, decrement to absent)
// keyed by gpfn as TPP-H's is and by sparse gvpn as the guest scanner's
// is, Memtis's histogram (cooled every 10th round) and vTMM's counts
// (halved every round).
func TestScoreboard(t *testing.T) {
	cases := []struct {
		name   string
		replay func(t *testing.T, rng *simrand.Source)
	}{
		{"saturate-and-evict", func(t *testing.T, _ *simrand.Source) {
			b := newScoreboard(3)
			if b.observe(1, true) != 1 || b.observe(1, true) != 2 || b.observe(1, true) != 3 {
				t.Fatal("increment broken")
			}
			if b.observe(1, true) != 3 {
				t.Fatal("saturation broken")
			}
			if b.observe(1, false) != 2 {
				t.Fatal("decay broken")
			}
			b.observe(1, false)
			b.observe(1, false)
			if b.get(1) != 0 {
				t.Fatal("score should bottom out at 0")
			}
			if boardLen(b) != 0 {
				t.Fatal("zero-score entries should be evicted")
			}
		}},
		{"gpfn-board", func(t *testing.T, rng *simrand.Source) {
			keys := make([]uint64, 1500) // three pages of a frame range
			for i := range keys {
				keys[i] = uint64(i)
			}
			replayBoard(t, rng, keys)
		}},
		{"gvpn-board", func(t *testing.T, rng *simrand.Source) {
			// A heap and an mmap region, far apart, each spanning a
			// page boundary of the store.
			var keys []uint64
			for _, base := range []uint64{guestos.HeapBase >> guestos.PageShift, (guestos.MmapBase >> guestos.PageShift) - 700} {
				for i := uint64(0); i < 600; i++ {
					keys = append(keys, base+i)
				}
			}
			replayBoard(t, rng, keys)
		}},
		{"memtis-hist", func(t *testing.T, rng *simrand.Source) { replayCounts(t, rng, memtisCoolEveryRounds) }},
		{"vtmm-counts", func(t *testing.T, rng *simrand.Source) { replayCounts(t, rng, 1) }},
	}
	for _, tc := range cases {
		for seed := uint64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				tc.replay(t, simrand.New(seed))
			})
		}
	}
}

// designs lists each baseline that keeps per-frame state; make returns a
// new detached instance and its round.
var designs = []struct {
	name string
	make func() (Policy, func())
}{
	{"tpp", func() (Policy, func()) { p := NewTPP(testScan()); return p, p.round }},
	{"tpp-h", func() (Policy, func()) { p := NewTPPH(testScan()); return p, p.round }},
	{"nomad", func() (Policy, func()) { p := NewNomad(testScan()); return p, p.round }},
	{"memtis", func() (Policy, func()) { p := NewMemtis(testMemtis()); return p, p.round }},
	{"vtmm", func() (Policy, func()) { p := NewVTMM(testVTMM()); return p, p.round }},
}

// scored returns how many pages p holds a score or count for.
func scored(p Policy) int {
	switch p := p.(type) {
	case *TPP:
		return boardLen(p.board)
	case *Nomad:
		return boardLen(p.board)
	case *TPPH:
		return boardLen(p.board)
	case *Memtis:
		return p.hist.len()
	case *VTMM:
		return p.counts.len()
	}
	panic("scored: " + p.Name())
}

// warm attaches p to a fresh GUPS VM and runs it for a few scan periods.
func warm(t testing.TB, p Policy) (*sim.Engine, *hypervisor.VM) {
	t.Helper()
	eng, vm, x, _ := rig(t, 4096, 65536, 8192, 10_000_000)
	p.Attach(eng, vm)
	x.Start()
	eng.Run(eng.Now() + 60*sim.Millisecond)
	return eng, vm
}

// Detaching a design and attaching a new instance of it on the same VM
// starts the new one from empty scores, as a fresh map did.
func TestReattachStartsEmpty(t *testing.T) {
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			old, _ := d.make()
			eng, vm := warm(t, old)
			if scored(old) == 0 {
				t.Fatal("the first instance scored no page")
			}
			old.Detach()
			p, _ := d.make()
			p.Attach(eng, vm)
			defer p.Detach()
			if n := scored(p); n != 0 {
				t.Fatalf("the new instance starts with %d scored pages", n)
			}
			eng.Run(eng.Now() + 60*sim.Millisecond)
			if scored(p) == 0 {
				t.Fatal("the new instance scored no page")
			}
		})
	}
}

// MigrateGuestPage remaps the page's GPT entry, which clears its flag
// bits; the guest scanner's score must stay with the gvpn.
func TestGuestScanScoreFollowsGVPN(t *testing.T) {
	p := NewTPP(testScan())
	_, vm := warm(t, p)
	defer p.Detach()
	var gvpns []uint64
	vm.Proc.GPT.Scan(func(gvpn uint64, _ *pagetable.Entry) bool {
		if p.board.get(gvpn) > 0 {
			gvpns = append(gvpns, gvpn)
		}
		return len(gvpns) < 64
	})
	moved := 0
	for _, gvpn := range gvpns {
		score := p.board.get(gvpn)
		gpfn, _ := vm.Proc.Translate(gvpn)
		if _, err := vm.MigrateGuestPage(gvpn, 1-vm.Kernel.NodeOfGPFN(gpfn)); err != nil {
			continue
		}
		moved++
		if now, _ := vm.Proc.Translate(gvpn); now == gpfn {
			t.Fatalf("gvpn %#x still maps gpfn %d after migrating", gvpn, gpfn)
		}
		if got := p.board.get(gvpn); got != score {
			t.Fatalf("gvpn %#x scored %d before migrating, %d after", gvpn, score, got)
		}
	}
	if moved == 0 {
		t.Fatalf("none of %d scored pages migrated", len(gvpns))
	}
}

// BenchmarkRound times back-to-back management rounds of each baseline on
// a VM whose workload has already run under it for a few scan periods.
func BenchmarkRound(b *testing.B) {
	for _, d := range designs {
		b.Run(d.name, func(b *testing.B) {
			p, round := d.make()
			warm(b, p)
			defer p.Detach()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// touchSlow sets the A bit of every slow-tier page in vm's GPT and EPT:
// pages promoted by one round cool off and are demoted again, so
// back-to-back rounds keep finding both hot and cold pages.
func touchSlow(vm *hypervisor.VM) {
	vm.Proc.GPT.Scan(func(_ uint64, e *pagetable.Entry) bool {
		if vm.Kernel.NodeOfGPFN(mem.Frame(e.Value())) != 0 {
			e.MarkAccessed()
		}
		return true
	})
	vm.EPT.Scan(func(_ uint64, e *pagetable.Entry) bool {
		if vm.Machine.Topo.NodeOf(hostFrameOf(e)).ID != 0 {
			e.MarkAccessed()
		}
		return true
	})
}

// A warmed-up round of each baseline reuses its candidate buffers and the
// tables' cached scan order, so it allocates nothing.
func TestSteadyStateRoundAllocatesNothing(t *testing.T) {
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			p, round := d.make()
			_, vm := warm(t, p)
			defer p.Detach()
			if scored(p) == 0 {
				t.Fatal("no page scored after warm-up")
			}
			touched := func() { touchSlow(vm); round() }
			if n := testing.AllocsPerRun(50, touched); n != 0 {
				t.Fatalf("steady-state round allocates %v times, want 0", n)
			}
		})
	}
}

func testVTMM() ScanConfig {
	cfg := DefaultVTMMConfig()
	cfg.ScanPeriod = 2 * sim.Millisecond
	cfg.ScanBatchPages = 7200
	return cfg
}

func TestVTMMTracksWritesViaPML(t *testing.T) {
	eng, vm, x, _ := rig(t, 4096, 65536, 32768, 600_000)
	p := NewVTMM(testVTMM())
	p.Attach(eng, vm)
	defer p.Detach()
	if !engine.RunAll(eng, 200*sim.Second, x) {
		t.Fatal("did not finish")
	}
	if p.PMLExits == 0 {
		t.Fatal("PML never exited despite a write-heavy workload")
	}
	if p.Stats().Promoted == 0 {
		t.Fatal("vTMM promoted nothing")
	}
	// Hypervisor-based: host CPU, full flushes, no guest ledger charges.
	if vm.Machine.HostLedger.Sum() == 0 {
		t.Fatal("vTMM charged no host CPU")
	}
	if vm.TLB.Stats().FullFlushes == 0 {
		t.Fatal("vTMM must full-flush to re-arm A/D tracking")
	}
}

func TestVTMMSlowerThanDemeterStyleGuest(t *testing.T) {
	// §7.3's bottom line: PML-based hypervisor tracking underperforms a
	// guest design with PEBS. Compare against plain guest TPP, which is
	// already weaker than Demeter.
	run := func(useVTMM bool) sim.Duration {
		eng, vm, x, _ := rig(t, 4096, 65536, 32768, 900_000)
		var pol Policy
		if useVTMM {
			pol = NewVTMM(testVTMM())
		} else {
			pol = NewTPP(testScan())
		}
		pol.Attach(eng, vm)
		defer pol.Detach()
		if !engine.RunAll(eng, 500*sim.Second, x) {
			t.Fatal("did not finish")
		}
		return x.Runtime()
	}
	tpp := run(false)
	vtmm := run(true)
	if vtmm <= tpp {
		t.Fatalf("vTMM (%v) should be slower than guest TPP (%v)", vtmm, tpp)
	}
}

// A zero scan bound means unbounded, as for the other scanners: one
// vTMM round must harvest every EPT A bit the workload left set.
func TestVTMMZeroScanBatchScansEverything(t *testing.T) {
	eng, vm, x, _ := rig(t, 4096, 65536, 2048, 50_000)
	if !engine.RunAll(eng, 200*sim.Second, x) {
		t.Fatal("did not finish")
	}
	accessed := func() int {
		n := 0
		vm.EPT.Scan(func(_ uint64, e *pagetable.Entry) bool {
			if e.Accessed() {
				n++
			}
			return true
		})
		return n
	}
	before := accessed()
	if before == 0 {
		t.Fatal("the workload left no EPT A bit set")
	}
	cfg := testVTMM()
	cfg.ScanBatchPages = 0
	p := NewVTMM(cfg)
	p.Attach(eng, vm)
	defer p.Detach()
	eng.Run(eng.Now() + cfg.ScanPeriod)
	if rounds := p.Stats().Rounds; rounds != 1 {
		t.Fatalf("ran %d rounds, want 1", rounds)
	}
	if after := accessed(); after != 0 {
		t.Fatalf("an unbounded round left %d of %d EPT A bits set", after, before)
	}
}

// mapReverseMap is the map-based reverse lookup Memtis used before
// reverseMap, kept as the reference: the gVA mapping each wanted gpfn,
// scanning in gvpn order until every one is found.
func mapReverseMap(gpt *pagetable.Table, lists ...[]uint64) map[uint64]uint64 {
	wanted := make(map[uint64]uint64)
	for _, l := range lists {
		for _, gpfn := range l {
			wanted[gpfn] = 0
		}
	}
	out := make(map[uint64]uint64, len(wanted))
	gpt.Scan(func(gvpn uint64, e *pagetable.Entry) bool {
		if _, ok := wanted[e.Value()]; ok {
			out[e.Value()] = gvpn
		}
		return len(out) < len(wanted)
	})
	return out
}

// Seeded rounds of disjoint gpfn lists resolve as the map-based lookup
// does, and each round leaves the slice all zero. Odd rounds mix mapped
// and unmapped gpfns, so the scan runs to the end; even rounds want only
// mapped ones, so it stops once all are found.
func TestReverseMapMatchesMapScan(t *testing.T) {
	eng, vm, x, _ := rig(t, 256, 1024, 1000, 1_000_000)
	x.Start()
	eng.Run(eng.Now() + 20*sim.Millisecond)
	gpt := vm.Proc.GPT
	frames := vm.Kernel.Topo.TotalFrames()
	var mapped []uint64
	gpt.Scan(func(_ uint64, e *pagetable.Entry) bool {
		mapped = append(mapped, e.Value())
		return true
	})
	r := make(reverseMap, frames)
	rng := simrand.New(5)
	for round := 0; round < 20; round++ {
		perm := mapped
		if round%2 == 1 {
			perm = make([]uint64, frames)
			for i := range perm {
				perm[i] = uint64(i)
			}
		}
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		hot, cold := perm[:1+rng.Intn(40)], perm[50:50+rng.Intn(200)]
		want := mapReverseMap(gpt, hot, cold)
		r.fill(gpt, hot, cold)
		found := 0
		for _, gpfn := range append(slices.Clone(hot), cold...) {
			gvpn, ok := r.gva(gpfn)
			wgvpn, wok := want[gpfn]
			if ok != wok || gvpn != wgvpn {
				t.Fatalf("round %d: gpfn %d -> %d,%v, map scan gives %d,%v", round, gpfn, gvpn, ok, wgvpn, wok)
			}
			if ok {
				found++
			}
		}
		if mix := found < len(hot)+len(cold); found == 0 || mix != (round%2 == 1) {
			t.Fatalf("round %d: %d of %d gpfns mapped", round, found, len(hot)+len(cold))
		}
		r.clear(hot, cold)
		if i := slices.IndexFunc(r, func(v uint64) bool { return v != 0 }); i >= 0 {
			t.Fatalf("round %d: entry %d left set after clear", round, i)
		}
	}
}
