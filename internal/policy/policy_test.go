package policy

import (
	"testing"

	"demeter/internal/engine"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/sim"
	"demeter/internal/track"
	"demeter/internal/workload"
)

// rig builds a VM whose GUPS footprint overflows FMEM, so placement
// policies have real promotion work: the hot set starts mostly in SMEM
// after the init sweep.
func rig(t *testing.T, wls ...workload.Workload) (*sim.Engine, *hypervisor.VM, *engine.Executor) {
	t.Helper()
	eng := sim.NewEngine()
	m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(96, 512))
	vm, err := m.NewVM(hypervisor.VMConfig{
		VCPUs: 4, GuestFMEM: 96, GuestSMEM: 512,
		FMEMBacking: 0, SMEMBacking: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Workload(workload.Must(workload.NewGUPS(300, 200_000, 3)))
	if len(wls) > 0 {
		wl = wls[0]
	}
	return eng, vm, engine.NewExecutor(eng, vm, wl)
}

func trackerFor(t *testing.T, kind string) track.Tracker {
	t.Helper()
	tr, err := track.New(track.Config{Kind: kind, Period: sim.Millisecond, SamplePeriod: 17, ScanBatch: 4096, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func policyConfig(kind string) Config {
	return Config{
		Kind:           kind,
		Period:         2 * sim.Millisecond,
		MigrationBatch: 64,
		HotThreshold:   2,
		ActiveWithin:   3 * sim.Millisecond,
		IdleAfter:      10 * sim.Millisecond,
	}
}

// TestEveryTrackerDrivesEveryPolicy is the tentpole's contract: all
// tracker × tracker-driven-policy pairings attach, run a full workload
// and detach purely through configuration — 16 pairings, zero
// pairing-specific code.
func TestEveryTrackerDrivesEveryPolicy(t *testing.T) {
	for _, tk := range track.Kinds() {
		for _, pk := range Kinds() {
			if !TrackerDriven(pk) {
				continue
			}
			t.Run(tk+"/"+pk, func(t *testing.T) {
				eng, vm, x := rig(t)
				tr := trackerFor(t, tk)
				if err := tr.Attach(eng, vm); err != nil {
					t.Fatal(err)
				}
				defer tr.Detach()
				pol, err := New(policyConfig(pk))
				if err != nil {
					t.Fatal(err)
				}
				if pol.Name() != pk {
					t.Fatalf("Name() = %q, want %q", pol.Name(), pk)
				}
				if err := pol.Attach(eng, vm, tr); err != nil {
					t.Fatal(err)
				}
				defer pol.Detach()
				if !engine.RunAll(eng, 100*sim.Second, x) {
					t.Fatal("workload did not finish")
				}
				if vm.Ledger.Total("classify") <= 0 {
					t.Error("no classification CPU charged")
				}
			})
		}
	}
}

// TestFrequencyPairingsPromoteHotPages pins that the frequency-capable
// pairings actually move the hot set: migration CPU is charged and VM
// stats show promotions.
func TestFrequencyPairingsPromoteHotPages(t *testing.T) {
	for _, pair := range []struct{ tk, pk string }{
		{"pebs", "ranked"},
		{"pebs", "heat"},
		{"abit", "threshold"},
		{"abit", "ranked"},
		{"idlepage", "age"},
		{"damon", "heat"},
	} {
		t.Run(pair.tk+"/"+pair.pk, func(t *testing.T) {
			pcfg := policyConfig(pair.pk)
			var eng *sim.Engine
			var vm *hypervisor.VM
			var x *engine.Executor
			if pair.pk == "age" {
				// The age pairing needs pages whose inter-access gaps
				// exceed the scan period — a sparse GUPS where each cold
				// page rests several ms between touches.
				eng = sim.NewEngine()
				m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(256, 4096))
				var err error
				vm, err = m.NewVM(hypervisor.VMConfig{
					VCPUs: 4, GuestFMEM: 256, GuestSMEM: 4096,
					FMEMBacking: 0, SMEMBacking: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				x = engine.NewExecutor(eng, vm, workload.Must(workload.NewGUPS(2000, 300_000, 3)))
				pcfg.ActiveWithin = 2 * sim.Millisecond
				pcfg.IdleAfter = 8 * sim.Millisecond
			} else {
				eng, vm, x = rig(t)
			}
			tr := trackerFor(t, pair.tk)
			if err := tr.Attach(eng, vm); err != nil {
				t.Fatal(err)
			}
			defer tr.Detach()
			pol, err := New(pcfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := pol.Attach(eng, vm, tr); err != nil {
				t.Fatal(err)
			}
			defer pol.Detach()
			if !engine.RunAll(eng, 100*sim.Second, x) {
				t.Fatal("workload did not finish")
			}
			if vm.Ledger.Total("migrate") <= 0 {
				t.Fatal("no migration CPU charged")
			}
		})
	}
}

// TestIntegratedKindsAttachViaConfig runs each integrated design from
// the same config surface; the tracker is ignored.
func TestIntegratedKindsAttachViaConfig(t *testing.T) {
	for _, kind := range Kinds() {
		if TrackerDriven(kind) {
			continue
		}
		t.Run(kind, func(t *testing.T) {
			eng, vm, x := rig(t)
			pol, err := New(Config{Kind: kind, Period: 5 * sim.Millisecond, MigrationBatch: 64})
			if err != nil {
				t.Fatal(err)
			}
			if err := pol.Attach(eng, vm, nil); err != nil {
				t.Fatal(err)
			}
			defer pol.Detach()
			if !engine.RunAll(eng, 100*sim.Second, x) {
				t.Fatal("workload did not finish")
			}
		})
	}
}

func TestPolicyConfigErrors(t *testing.T) {
	cases := []Config{
		{Kind: "nope"},
		{Kind: ""},
		{Kind: "heat", Period: -1},
		{Kind: "ranked", MigrationBatch: -2},
		{Kind: "threshold", HotThreshold: -3},
		{Kind: "memtis", HotThreshold: -3},
		{Kind: "age", ActiveWithin: 100 * sim.Millisecond, IdleAfter: 10 * sim.Millisecond},
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestPolicyDoubleAttachErrors(t *testing.T) {
	eng, vm, _ := rig(t)
	tr := trackerFor(t, "abit")
	if err := tr.Attach(eng, vm); err != nil {
		t.Fatal(err)
	}
	defer tr.Detach()
	for _, kind := range []string{"heat", "static"} {
		pol, err := New(policyConfig(kind))
		if err != nil {
			t.Fatal(err)
		}
		if err := pol.Attach(eng, vm, tr); err != nil {
			t.Fatalf("%s: first attach: %v", kind, err)
		}
		if err := pol.Attach(eng, vm, tr); err == nil {
			t.Errorf("%s: double attach did not error", kind)
		}
		pol.Detach()
		pol.Detach() // idempotent
	}
}

func TestTrackerDrivenPolicyNeedsTracker(t *testing.T) {
	eng, vm, _ := rig(t)
	pol, err := New(policyConfig("heat"))
	if err != nil {
		t.Fatal(err)
	}
	if err := pol.Attach(eng, vm, nil); err == nil {
		t.Fatal("heat policy accepted a nil tracker")
	}
}

// TestSteadyStateRoundAllocatesOnlyCounters pins the allocation contract
// of a warmed-up round for every tracker × driven-policy pairing: the
// round buffers are reused, so the tracker's Counters copy is the only
// allocation left.
func TestSteadyStateRoundAllocatesOnlyCounters(t *testing.T) {
	for _, tk := range track.Kinds() {
		for _, pk := range Kinds() {
			if !TrackerDriven(pk) {
				continue
			}
			t.Run(tk+"/"+pk, func(t *testing.T) {
				eng, vm, x := rig(t)
				tr := trackerFor(t, tk)
				if err := tr.Attach(eng, vm); err != nil {
					t.Fatal(err)
				}
				defer tr.Detach()
				pol, err := New(policyConfig(pk))
				if err != nil {
					t.Fatal(err)
				}
				if err := pol.Attach(eng, vm, tr); err != nil {
					t.Fatal(err)
				}
				defer pol.Detach()
				x.Start()
				defer x.Stop()
				eng.Run(eng.Now() + 20*sim.Millisecond)
				if len(tr.Counters()) == 0 {
					t.Fatal("tracker has no counters after warm-up")
				}
				round := pol.(interface{ round() }).round
				if n := testing.AllocsPerRun(50, round); n > 1 {
					t.Fatalf("steady-state round allocates %v times, want at most 1 (the Counters copy)", n)
				}
			})
		}
	}
}
