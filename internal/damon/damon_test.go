package damon

import (
	"strings"
	"testing"

	"demeter/internal/engine"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/sim"
	"demeter/internal/workload"
)

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.SamplingInterval = 100 * sim.Microsecond
	cfg.AggregationInterval = 10 * sim.Millisecond
	cfg.MaxRegions = 200
	return cfg
}

func mustProfiler(t *testing.T, cfg Config) *Profiler {
	t.Helper()
	p, err := NewProfiler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func rig(t *testing.T) (*sim.Engine, *hypervisor.VM, *engine.Executor, *workload.GUPS) {
	t.Helper()
	eng := sim.NewEngine()
	m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(512, 4096))
	vm, err := m.NewVM(hypervisor.VMConfig{
		VCPUs: 4, GuestFMEM: 512, GuestSMEM: 4096,
		FMEMBacking: 0, SMEMBacking: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Must(workload.NewGUPS(2048, 1_500_000, 7))
	x := engine.NewExecutor(eng, vm, wl)
	return eng, vm, x, wl
}

func TestProfilerRegionInvariants(t *testing.T) {
	eng, vm, x, _ := rig(t)
	p := mustProfiler(t, testCfg())
	p.Attach(eng, vm)
	defer p.Detach()
	x.Start()
	for i := 0; i < 10; i++ {
		eng.Run(eng.Now() + 5*sim.Millisecond)
		regions := p.Regions()
		if len(regions) > p.Cfg.MaxRegions {
			t.Fatalf("region count %d exceeds max %d", len(regions), p.Cfg.MaxRegions)
		}
		for j := 1; j < len(regions); j++ {
			if regions[j].StartPage < regions[j-1].EndPage {
				t.Fatalf("regions overlap or out of order at %d", j)
			}
		}
		if x.Finished() {
			break
		}
	}
	if p.Samples == 0 {
		t.Fatal("profiler never sampled")
	}
}

func TestProfilerFindsHotRegion(t *testing.T) {
	eng, vm, x, wl := rig(t)
	p := mustProfiler(t, testCfg())
	p.Attach(eng, vm)
	defer p.Detach()
	engine.RunAll(eng, 100*sim.Second, x)

	snap := p.Last()
	if len(snap.Regions) == 0 {
		t.Fatal("no snapshot published")
	}
	// The region with the highest access estimate should overlap the
	// GUPS hot section.
	hotStart, hotPages := wl.HotRange()
	base := wl.Region() >> 12
	lo, hi := base+hotStart, base+hotStart+hotPages
	var best Region
	for _, r := range snap.Regions {
		if r.NrAccesses > best.NrAccesses {
			best = r
		}
	}
	if best.EndPage <= lo || best.StartPage >= hi {
		t.Errorf("hottest region [%x,%x) does not overlap hot section [%x,%x)",
			best.StartPage, best.EndPage, lo, hi)
	}
}

func TestProfilerChargesTLBFlushes(t *testing.T) {
	eng, vm, x, _ := rig(t)
	p := mustProfiler(t, testCfg())
	p.Attach(eng, vm)
	defer p.Detach()
	engine.RunAll(eng, 100*sim.Second, x)
	// §6.3: DAMON's A-bit probing is TLB-flush intensive.
	if p.Flushes == 0 {
		t.Fatal("A-bit probing must flush")
	}
	if vm.TLB.Stats().SingleFlushes == 0 {
		t.Fatal("flushes not reflected in TLB stats")
	}
	if vm.Ledger.Total("track") == 0 {
		t.Fatal("probing charged no CPU")
	}
}

func TestPolicyPromotes(t *testing.T) {
	eng, vm, x, wl := rig(t)
	pol, err := NewPolicy(testCfg(), 12, 512)
	if err != nil {
		t.Fatal(err)
	}
	pol.Attach(eng, vm)
	defer pol.Detach()
	if !engine.RunAll(eng, 100*sim.Second, x) {
		t.Fatal("did not finish")
	}
	if pol.Promoted == 0 {
		t.Fatal("policy promoted nothing")
	}
	// Placement should beat first-touch: some of the hot section in FMEM.
	hotStart, hotPages := wl.HotRange()
	base := wl.Region() >> 12
	inFast := 0
	for pg := uint64(0); pg < hotPages; pg++ {
		if fast, mapped := vm.ResidentTier(base + hotStart + pg); mapped && fast {
			inFast++
		}
	}
	if inFast == 0 {
		t.Error("no hot pages promoted to FMEM")
	}
}

// TestDoubleAttachFails: a second Attach while attached returns an error
// naming DAMON, for the profiler and for the policy built on it, and
// the first attachment keeps sampling.
func TestDoubleAttachFails(t *testing.T) {
	eng, vm, x, _ := rig(t)
	p := mustProfiler(t, testCfg())
	if err := p.Attach(eng, vm); err != nil {
		t.Fatal(err)
	}
	defer p.Detach()
	if err := p.Attach(eng, vm); err == nil || !strings.Contains(err.Error(), "damon") {
		t.Fatalf("profiler double attach returned %v, want an error naming damon", err)
	}
	pol, err := NewPolicy(testCfg(), 12, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := pol.Attach(eng, vm); err != nil {
		t.Fatal(err)
	}
	defer pol.Detach()
	if err := pol.Attach(eng, vm); err == nil || !strings.Contains(err.Error(), pol.Name()) {
		t.Fatalf("policy double attach returned %v, want an error naming %s", err, pol.Name())
	}
	x.Start()
	eng.Run(eng.Now() + 50*sim.Millisecond)
	if p.Samples == 0 || pol.Prof.Samples == 0 {
		t.Errorf("samples after the refused attaches: profiler %d, policy %d; want both live", p.Samples, pol.Prof.Samples)
	}
}

func TestBadRegionBoundsReturnsError(t *testing.T) {
	cfg := testCfg()
	cfg.MaxRegions = 5
	if _, err := NewProfiler(cfg); err == nil {
		t.Fatal("bad bounds did not return an error")
	}
	if _, err := NewPolicy(cfg, 12, 512); err == nil {
		t.Fatal("NewPolicy accepted bad bounds")
	}
}
