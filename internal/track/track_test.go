package track

import (
	"slices"
	"sort"
	"testing"

	"demeter/internal/engine"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/sim"
	"demeter/internal/workload"
)

// rig builds one machine+VM running a hot/cold GUPS so every tracker
// has a skewed access stream to observe.
func rig(t *testing.T) (*sim.Engine, *hypervisor.VM, *engine.Executor, *workload.GUPS) {
	t.Helper()
	eng := sim.NewEngine()
	m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(128, 512))
	vm, err := m.NewVM(hypervisor.VMConfig{
		VCPUs: 4, GuestFMEM: 128, GuestSMEM: 512,
		FMEMBacking: 0, SMEMBacking: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.Must(workload.NewGUPS(300, 60_000, 3))
	return eng, vm, engine.NewExecutor(eng, vm, wl), wl
}

func testConfig(kind string) Config {
	return Config{
		Kind:         kind,
		Period:       2 * sim.Millisecond,
		SamplePeriod: 17,
		ScanBatch:    4096,
		Seed:         1,
	}
}

func TestTrackersObserveSkew(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			eng, vm, x, wl := rig(t)
			tr, err := New(testConfig(kind))
			if err != nil {
				t.Fatal(err)
			}
			if tr.Name() != kind {
				t.Fatalf("Name() = %q, want %q", tr.Name(), kind)
			}
			if err := tr.Attach(eng, vm); err != nil {
				t.Fatal(err)
			}
			defer tr.Detach()
			if !engine.RunAll(eng, 100*sim.Second, x) {
				t.Fatal("workload did not finish")
			}
			counters := tr.Counters()
			if len(counters) == 0 {
				t.Fatal("no counters after a full run")
			}
			if !sort.SliceIsSorted(counters, func(i, j int) bool {
				return counters[i].StartGVPN < counters[j].StartGVPN
			}) {
				t.Fatal("counters not sorted by StartGVPN")
			}
			for _, c := range counters {
				if c.EndGVPN <= c.StartGVPN {
					t.Fatalf("empty counter span %+v", c)
				}
				if c.Accesses < 0 {
					t.Fatalf("negative access estimate %+v", c)
				}
				if c.LastSeen < 0 || c.LastSeen > eng.Now() {
					t.Fatalf("LastSeen %v outside [0, now=%v]", c.LastSeen, eng.Now())
				}
			}
			// Tracking is not free: every mechanism charges the track
			// component.
			if vm.Ledger.Total("track") <= 0 {
				t.Fatal("no tracking CPU charged")
			}
			// The frequency trackers must see the GUPS hot section as
			// hotter per page than the cold rest.
			if kind == "pebs" || kind == "abit" {
				hotStart, hotPages := wl.HotRange()
				base := wl.Region() >> 12
				hotLo, hotHi := base+hotStart, base+hotStart+hotPages
				var hotSum, coldSum float64
				var hotN, coldN int
				for _, c := range counters {
					if c.StartGVPN >= hotLo && c.EndGVPN <= hotHi {
						hotSum += c.Accesses
						hotN++
					} else {
						coldSum += c.Accesses
						coldN++
					}
				}
				if hotN == 0 {
					t.Fatal("tracker never saw the hot range")
				}
				hotRate := hotSum / float64(hotN)
				coldRate := coldSum / float64(coldN+1)
				if hotRate <= coldRate {
					t.Fatalf("hot per-page rate %.2f not above cold %.2f", hotRate, coldRate)
				}
			}
		})
	}
}

// TestTrackerCountersAreBorrowedViews pins the read-model contract for
// every kind: Counters lends the tracker's own slice, so two reads with
// no event in between give the same contents, a read allocates nothing,
// and the contents follow the tracker's next scan, drain or aggregation.
func TestTrackerCountersAreBorrowedViews(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			eng, vm, x, _ := rig(t)
			tr, err := New(testConfig(kind))
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Attach(eng, vm); err != nil {
				t.Fatal(err)
			}
			defer tr.Detach()
			x.Start()
			defer x.Stop()
			eng.Run(eng.Now() + 6*sim.Millisecond)
			before := slices.Clone(tr.Counters())
			if len(before) == 0 {
				t.Fatal("no counters after warm-up")
			}
			if n := testing.AllocsPerRun(20, func() { tr.Counters() }); n != 0 {
				t.Fatalf("a read allocates %v times, want 0", n)
			}
			if again := tr.Counters(); !slices.Equal(again, before) {
				t.Fatal("two reads with no event in between differ")
			}
			eng.Run(eng.Now() + 6*sim.Millisecond)
			if x.Finished() {
				t.Fatal("workload finished inside the window; the rig is too small")
			}
			if slices.Equal(tr.Counters(), before) {
				t.Fatal("contents did not follow the tracker's events")
			}
		})
	}
}

func TestTrackerDoubleAttachErrors(t *testing.T) {
	for _, kind := range Kinds() {
		eng, vm, _, _ := rig(t)
		tr, err := New(testConfig(kind))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Attach(eng, vm); err != nil {
			t.Fatalf("%s: first attach: %v", kind, err)
		}
		if err := tr.Attach(eng, vm); err == nil {
			t.Errorf("%s: double attach did not error", kind)
		}
		tr.Detach()
		tr.Detach() // idempotent
	}
}

func TestTrackerDetachStopsActivity(t *testing.T) {
	eng, vm, x, _ := rig(t)
	tr, err := New(testConfig("abit"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Attach(eng, vm); err != nil {
		t.Fatal(err)
	}
	eng.Run(eng.Now() + 20*sim.Millisecond)
	tr.Detach()
	before := vm.Ledger.Total("track")
	if !engine.RunAll(eng, 100*sim.Second, x) {
		t.Fatal("did not finish")
	}
	if after := vm.Ledger.Total("track"); after != before {
		t.Fatalf("tracking CPU kept accruing after Detach: %v -> %v", before, after)
	}
}

func TestTrackerConfigErrors(t *testing.T) {
	cases := []Config{
		{Kind: "nope"},
		{Kind: ""},
		{Kind: "pebs", Period: -1},
		{Kind: "abit", ScanBatch: -4},
		{Kind: "damon", Period: -5},
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestTrackersAreDeterministic(t *testing.T) {
	run := func(kind string) []Counter {
		eng, vm, x, _ := rig(t)
		tr, err := New(testConfig(kind))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Attach(eng, vm); err != nil {
			t.Fatal(err)
		}
		defer tr.Detach()
		engine.RunAll(eng, 100*sim.Second, x)
		return tr.Counters()
	}
	for _, kind := range Kinds() {
		a, b := run(kind), run(kind)
		if len(a) != len(b) {
			t.Fatalf("%s: counter sets differ in size: %d vs %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: counter %d differs: %+v vs %+v", kind, i, a[i], b[i])
			}
		}
	}
}
