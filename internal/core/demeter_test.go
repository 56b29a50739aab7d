package core

import (
	"testing"

	"demeter/internal/engine"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/pebs"
	"demeter/internal/sim"
	"demeter/internal/workload"
)

// testConfig compresses the paper's cadence and granularity for fast unit
// runs: epochs in milliseconds, a denser sample rate, and a 64 KiB split
// granularity so hot ranges fit the tiny test FMEM.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.EpochPeriod = 2 * sim.Millisecond
	// Dense sampling keeps samples-per-epoch in the paper's regime
	// (hundreds) despite the compressed epoch.
	cfg.SamplePeriod = 17
	cfg.MigrationBatch = 1024
	cfg.Params.GranularityPages = 16
	return cfg
}

// rig builds a 1-VM machine with the given FMEM:SMEM frames and a GUPS
// workload of footprintPages.
func rig(t *testing.T, fmem, smem, footprint, ops uint64) (*sim.Engine, *hypervisor.VM, *engine.Executor, *workload.GUPS) {
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
	wl := workload.Must(workload.NewGUPS(footprint, ops, 7))
	x := engine.NewExecutor(eng, vm, wl)
	return eng, vm, x, wl
}

func TestDemeterPromotesGUPSHotSet(t *testing.T) {
	eng, vm, x, wl := rig(t, 512, 4096, 2048, 400_000)
	d := New(testConfig())
	d.Attach(eng, vm)
	defer d.Detach()
	if !engine.RunAll(eng, 200*sim.Second, x) {
		t.Fatal("workload did not finish")
	}
	st := d.Stats()
	if st.Samples == 0 {
		t.Fatal("no PEBS samples collected")
	}
	if st.Epochs == 0 {
		t.Fatal("no epochs ran")
	}
	if st.Promoted == 0 {
		t.Fatal("nothing promoted")
	}
	// Ground truth: the GUPS hot section should be mostly FMEM-resident.
	hotStart, hotPages := wl.HotRange()
	base := wl.Region() >> 12
	inFast := 0
	for p := uint64(0); p < hotPages; p++ {
		if fast, mapped := vm.ResidentTier(base + hotStart + p); mapped && fast {
			inFast++
		}
	}
	frac := float64(inFast) / float64(hotPages)
	if frac < 0.7 {
		t.Fatalf("only %.0f%% of the hot set is FMEM-resident after the run", frac*100)
	}
}

func TestDemeterImprovesGUPSRuntime(t *testing.T) {
	run := func(withDemeter bool) sim.Duration {
		eng, vm, x, _ := rig(t, 512, 4096, 2048, 400_000)
		if withDemeter {
			d := New(testConfig())
			d.Attach(eng, vm)
			defer d.Detach()
		}
		if !engine.RunAll(eng, 200*sim.Second, x) {
			t.Fatal("did not finish")
		}
		return x.Runtime()
	}
	static := run(false)
	demeter := run(true)
	if demeter >= static {
		t.Fatalf("Demeter (%v) not faster than static placement (%v)", demeter, static)
	}
}

func TestDemeterSwapsAreBalanced(t *testing.T) {
	eng, vm, x, _ := rig(t, 256, 4096, 2048, 200_000)
	d := New(testConfig())
	d.Attach(eng, vm)
	defer d.Detach()
	engine.RunAll(eng, 200*sim.Second, x)
	st := d.Stats()
	if st.SwapPairs == 0 {
		t.Fatal("no balanced swaps despite full FMEM")
	}
	// Balanced property: swap promotions equal demotions.
	if st.Promoted-st.FreePromotes != st.Demoted {
		t.Fatalf("unbalanced: promoted=%d free=%d demoted=%d", st.Promoted, st.FreePromotes, st.Demoted)
	}
	// Memory stability (§3.2.3): no net FMEM usage change from swapping —
	// the guest fast node must not have been drained or overfilled.
	if vm.Kernel.Topo.Nodes[0].FreeFrames() > 16 {
		t.Fatalf("FMEM free frames = %d; balanced relocation should keep FMEM full", vm.Kernel.Topo.Nodes[0].FreeFrames())
	}
}

func TestDemeterNeverFullFlushes(t *testing.T) {
	eng, vm, x, _ := rig(t, 256, 4096, 2048, 200_000)
	d := New(testConfig())
	d.Attach(eng, vm)
	defer d.Detach()
	engine.RunAll(eng, 200*sim.Second, x)
	if vm.TLB.Stats().FullFlushes != 0 {
		t.Fatalf("guest-delegated design issued %d full flushes", vm.TLB.Stats().FullFlushes)
	}
	if vm.TLB.Stats().SingleFlushes == 0 {
		t.Fatal("migration should have issued single-address flushes")
	}
}

func TestDemeterChargesAllComponents(t *testing.T) {
	eng, vm, x, _ := rig(t, 256, 4096, 1024, 200_000)
	d := New(testConfig())
	d.Attach(eng, vm)
	defer d.Detach()
	engine.RunAll(eng, 200*sim.Second, x)
	for _, comp := range []string{hypervisor.CompTrack, hypervisor.CompClassify, hypervisor.CompMigrate} {
		if vm.Ledger.Total(comp) == 0 {
			t.Errorf("component %q has no CPU charge", comp)
		}
	}
	// Tracking must be cheap relative to migration (Figure 7's shape).
	if vm.Ledger.Total(hypervisor.CompTrack) > vm.Ledger.Total(hypervisor.CompMigrate)*10 {
		t.Errorf("tracking cost %v disproportionate to migration %v",
			vm.Ledger.Total(hypervisor.CompTrack), vm.Ledger.Total(hypervisor.CompMigrate))
	}
}

func TestDemeterDoubleAttachPanics(t *testing.T) {
	eng, vm, _, _ := rig(t, 256, 1024, 512, 1000)
	d := New(testConfig())
	d.Attach(eng, vm)
	defer d.Detach()
	defer func() {
		if recover() == nil {
			t.Fatal("double attach did not panic")
		}
	}()
	d.Attach(eng, vm)
}

func TestDemeterDetachStopsActivity(t *testing.T) {
	eng, vm, x, _ := rig(t, 256, 4096, 1024, 50_000)
	d := New(testConfig())
	d.Attach(eng, vm)
	x.Start()
	eng.Run(eng.Now() + 10*sim.Millisecond)
	d.Detach()
	epochs := d.Stats().Epochs
	eng.Run(eng.Now() + 50*sim.Millisecond)
	if d.Stats().Epochs != epochs {
		t.Fatal("epochs advanced after detach")
	}
	if vm.PEBS.Armed() {
		t.Fatal("PEBS still armed after detach")
	}
}

func TestDemeterPollingAblationBurnsMoreCPU(t *testing.T) {
	run := func(ctxDrain bool) sim.Duration {
		eng, vm, x, _ := rig(t, 256, 4096, 1024, 200_000)
		cfg := testConfig()
		cfg.DrainAtContextSwitch = ctxDrain
		cfg.PollPeriod = 100 * sim.Microsecond
		d := New(cfg)
		d.Attach(eng, vm)
		defer d.Detach()
		engine.RunAll(eng, 200*sim.Second, x)
		return vm.Ledger.Total(hypervisor.CompTrack)
	}
	ctxCost := run(true)
	pollCost := run(false)
	if pollCost <= ctxCost {
		t.Fatalf("polling thread (%v) should cost more than context-switch draining (%v)", pollCost, ctxCost)
	}
}

func TestDemeterTranslationAblationCostsMore(t *testing.T) {
	run := func(translate bool) sim.Duration {
		eng, vm, x, _ := rig(t, 256, 4096, 1024, 200_000)
		cfg := testConfig()
		cfg.TranslateSamples = translate
		d := New(cfg)
		d.Attach(eng, vm)
		defer d.Detach()
		engine.RunAll(eng, 200*sim.Second, x)
		return vm.Ledger.Total(hypervisor.CompTrack)
	}
	direct := run(false)
	translated := run(true)
	if translated <= direct {
		t.Fatalf("per-sample translation (%v) should cost more than direct gVA use (%v)", translated, direct)
	}
}

// runUntilDropsExceed advances the rig one epoch at a time until the VM's
// delegation drop count rises above floor.
func runUntilDropsExceed(t *testing.T, eng *sim.Engine, d *Demeter, floor uint64) {
	t.Helper()
	for i := 0; d.ChannelDropped() <= floor; i++ {
		if i > 10_000 {
			t.Fatalf("drops stayed at %d after %d epochs on a wedged channel", d.ChannelDropped(), i)
		}
		eng.Run(eng.Now() + d.Cfg.EpochPeriod)
	}
}

// TestDemeterChannelDropsSurviveReattach pins the drop half of the
// channel.wedge contract: a wedged channel fills and then drops, the VM's
// drop count carries over a re-attach unchanged, and it keeps rising once
// the new channel overflows too.
func TestDemeterChannelDropsSurviveReattach(t *testing.T) {
	eng, vm, x, _ := rig(t, 512, 4096, 2048, 4_000_000)
	d := New(testConfig())
	d.Attach(eng, vm)
	defer d.Detach()
	x.Start()
	d.ch.Wedge()
	runUntilDropsExceed(t, eng, d, 0)

	d.Detach()
	before := d.ChannelDropped()
	d.Attach(eng, vm)
	if got := d.ChannelDropped(); got != before {
		t.Fatalf("ChannelDropped = %d right after re-attach, want %d", got, before)
	}
	d.ch.Wedge()
	runUntilDropsExceed(t, eng, d, before)
}

// TestDemeterReconcileUnwedgesChannel pins the recovery half: Reconcile
// discards what a wedged channel buffered and lets the consumer drain
// again.
func TestDemeterReconcileUnwedgesChannel(t *testing.T) {
	eng, vm, x, _ := rig(t, 512, 4096, 2048, 400_000)
	d := New(testConfig())
	d.Attach(eng, vm)
	defer d.Detach()
	x.Start()
	d.ch.Wedge()
	for i := 0; d.ch.Len() == 0; i++ {
		if i > 1000 {
			t.Fatal("wedged channel never buffered a sample")
		}
		eng.Run(eng.Now() + d.Cfg.EpochPeriod)
	}
	d.Reconcile()
	if n := d.ch.Len(); n != 0 {
		t.Fatalf("Len = %d after Reconcile, want 0", n)
	}
	d.ch.Push(pebs.Sample{GVPN: 7})
	if n := d.ch.Drain(func(pebs.Sample) {}); n != 1 {
		t.Fatalf("Drain after Reconcile returned %d samples, want 1", n)
	}
}

// relocate on a warmed VM reuses its candidate buffers, the range tree's
// ranking buffer and the page table's cached scan order, so it allocates
// nothing, while still promoting and swapping pages on each call.
func TestRelocateAllocatesNothing(t *testing.T) {
	eng, vm, x, _ := rig(t, 256, 4096, 2048, 10_000_000)
	cfg := testConfig()
	cfg.MigrationBatch = 4 // leave misplaced pages for every call below
	d := New(cfg)
	d.Attach(eng, vm)
	defer d.Detach()
	x.Start()
	defer x.Stop()
	eng.Run(eng.Now() + 20*sim.Millisecond)
	before := d.Stats()
	if n := testing.AllocsPerRun(20, d.relocate); n != 0 {
		t.Fatalf("relocate allocates %v times, want 0", n)
	}
	after := d.Stats()
	if after.SwapPairs-before.SwapPairs < 21 {
		t.Fatalf("21 relocate calls made %d balanced swaps; the test needs at least one per call",
			after.SwapPairs-before.SwapPairs)
	}
}
