package tmm

import (
	"testing"

	"demeter/internal/engine"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/pagetable"
	"demeter/internal/sim"
	"demeter/internal/workload"
)

// rig builds a 1-VM machine plus a GUPS executor.
func rig(t *testing.T, fmem, smem, footprint, ops uint64) (*sim.Engine, *hypervisor.VM, *engine.Executor, *workload.GUPS) {
	t.Helper()
	wl := workload.Must(workload.NewGUPS(footprint, ops, 7))
	eng, vm, x := rigWith(t, fmem, smem, wl)
	return eng, vm, x, wl
}

// rigWith builds a 1-VM machine plus an executor for wl.
func rigWith(t *testing.T, fmem, smem uint64, wl workload.Workload) (*sim.Engine, *hypervisor.VM, *engine.Executor) {
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

func TestDoubleAttachPanics(t *testing.T) {
	eng, vm, _, _ := rig(t, 256, 1024, 512, 1000)
	policies := []Policy{NewTPP(testScan()), NewTPPH(testScan()), NewMemtis(testMemtis()), NewNomad(testScan()), NewVTMM(testVTMM())}
	for _, p := range policies {
		func() {
			p.Attach(eng, vm)
			defer p.Detach()
			defer func() {
				if recover() == nil {
					t.Errorf("%s: double attach did not panic", p.Name())
				}
			}()
			p.Attach(eng, vm)
		}()
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

func TestScoreboard(t *testing.T) {
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
	if len(b.score) != 0 {
		t.Fatal("zero-score entries should be evicted")
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
