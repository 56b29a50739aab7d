package policy

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"demeter/internal/core"
	"demeter/internal/damon"
	"demeter/internal/engine"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/sim"
	"demeter/internal/simrand"
	"demeter/internal/tmm"
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

// sparseRig builds a VM running a sparse GUPS in which each cold page
// rests several ms between touches, longer than the scan period, so
// recency separates pages; the FMEM has headroom for promotions. Its
// policy config narrows the age windows to match.
func sparseRig(t *testing.T, pcfg Config) (*sim.Engine, *hypervisor.VM, *engine.Executor, Config) {
	t.Helper()
	eng := sim.NewEngine()
	m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(256, 4096))
	vm, err := m.NewVM(hypervisor.VMConfig{
		VCPUs: 4, GuestFMEM: 256, GuestSMEM: 4096,
		FMEMBacking: 0, SMEMBacking: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := engine.NewExecutor(eng, vm, workload.Must(workload.NewGUPS(2000, 300_000, 3)))
	pcfg.ActiveWithin = 2 * sim.Millisecond
	pcfg.IdleAfter = 8 * sim.Millisecond
	return eng, vm, x, pcfg
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

// pairingManifest is the per-pairing golden manifest: one
// "<sha256>  <tracker>/<policy>" line per tracker × tracker-driven-policy
// pairing, the SHA-256 of the pairing's outcome digests on the dense rig
// and on the sparse rig. A deliberate behaviour change re-freezes it by
// hand.
const pairingManifest = "testdata/pairings.sha256"

func readPairingManifest(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(pairingManifest)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", pairingManifest, sc.Text())
		}
		want[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// runPairing attaches a tk tracker and a pcfg policy to vm, runs x to
// completion and returns a digest of the simulated outcome: the VM's
// stats, its track/classify/migrate ledger totals, its TLB flush counts
// and the tracker's final counters.
func runPairing(t *testing.T, eng *sim.Engine, vm *hypervisor.VM, x *engine.Executor, tk string, pcfg Config) string {
	t.Helper()
	tr := trackerFor(t, tk)
	if err := tr.Attach(eng, vm); err != nil {
		t.Fatal(err)
	}
	defer tr.Detach()
	pol, err := New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != pcfg.Kind {
		t.Fatalf("Name() = %q, want %q", pol.Name(), pcfg.Kind)
	}
	if err := pol.Attach(eng, vm, tr); err != nil {
		t.Fatal(err)
	}
	defer pol.Detach()
	if !engine.RunAll(eng, 100*sim.Second, x) {
		t.Fatal("workload did not finish")
	}
	if vm.Ledger.Total(hypervisor.CompClassify) <= 0 {
		t.Error("no classification CPU charged")
	}
	ts := vm.TLB.Stats()
	return fmt.Sprintf("now=%d stats=%+v track=%d classify=%d migrate=%d single_flushes=%d full_flushes=%d counters=%v\n",
		eng.Now(), vm.Stats(),
		vm.Ledger.Total(hypervisor.CompTrack), vm.Ledger.Total(hypervisor.CompClassify), vm.Ledger.Total(hypervisor.CompMigrate),
		ts.SingleFlushes, ts.FullFlushes, tr.Counters())
}

// TestEveryTrackerDrivesEveryPolicy is the tentpole's contract: all
// tracker × tracker-driven-policy pairings attach, run a full workload
// and detach purely through configuration — 16 pairings, zero
// pairing-specific code. Each pairing runs on the dense rig and on the
// sparse rig, and its outcome must match its digest in the golden
// manifest, so a refactor that changes any pairing's behaviour names the
// pairing.
func TestEveryTrackerDrivesEveryPolicy(t *testing.T) {
	want := readPairingManifest(t)
	for _, tk := range track.Kinds() {
		for _, pk := range Kinds() {
			if !TrackerDriven(pk) {
				continue
			}
			name := tk + "/" + pk
			t.Run(name, func(t *testing.T) {
				eng, vm, x := rig(t)
				digest := runPairing(t, eng, vm, x, tk, policyConfig(pk))
				eng, vm, x, pcfg := sparseRig(t, policyConfig(pk))
				digest += runPairing(t, eng, vm, x, tk, pcfg)
				sum := sha256.Sum256([]byte(digest))
				got := hex.EncodeToString(sum[:])
				switch w, ok := want[name]; {
				case !ok:
					t.Errorf("%s: not in %s; its sha256 is %s", name, pairingManifest, got)
				case w != got:
					t.Errorf("%s: outcome changed: sha256 %s, %s has %s", name, got, pairingManifest, w)
				}
			})
			delete(want, name)
		}
	}
	for name := range want {
		t.Errorf("%s: in %s but not a tracker × policy pairing", name, pairingManifest)
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
				// exceed the scan period.
				eng, vm, x, pcfg = sparseRig(t, pcfg)
			} else {
				eng, vm, x = rig(t)
			}
			runPairing(t, eng, vm, x, pair.tk, pcfg)
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

// integratedBatch returns the migration batch an integrated policy
// built its design with.
func integratedBatch(t *testing.T, pol Policy) int {
	t.Helper()
	switch d := pol.(integrated).Policy.(type) {
	case *tmm.TPP:
		return d.Cfg.MigrationBatch
	case *tmm.TPPH:
		return d.Cfg.MigrationBatch
	case *tmm.Nomad:
		return d.Cfg.MigrationBatch
	case *tmm.VTMM:
		return d.Cfg.MigrationBatch
	case *tmm.Memtis:
		return d.Cfg.MigrationBatch
	case *core.Demeter:
		return d.Cfg.MigrationBatch
	case *damon.Policy:
		return d.MigrationBatch
	default:
		t.Fatalf("%s: no migration batch", pol.Name())
		return 0
	}
}

// TestIntegratedKindsHonourMigrationBatch pins that an explicit batch,
// including 512, reaches each integrated design, and that an unset one
// leaves the design's own default.
func TestIntegratedKindsHonourMigrationBatch(t *testing.T) {
	defaults := map[string]int{
		"tpp":     tmm.DefaultScanConfig().MigrationBatch,
		"tpp-h":   tmm.DefaultScanConfig().MigrationBatch,
		"nomad":   tmm.DefaultScanConfig().MigrationBatch,
		"vtmm":    tmm.DefaultVTMMConfig().MigrationBatch,
		"memtis":  tmm.DefaultMemtisConfig().MigrationBatch,
		"demeter": core.DefaultConfig().MigrationBatch,
		"damon":   defaultMigrationCap,
	}
	for _, kind := range Kinds() {
		if TrackerDriven(kind) || kind == "static" {
			continue
		}
		def, ok := defaults[kind]
		if !ok {
			t.Fatalf("%s: no default batch listed", kind)
		}
		for _, tc := range []struct{ set, want int }{{512, 512}, {64, 64}, {0, def}} {
			pol, err := New(Config{Kind: kind, MigrationBatch: tc.set})
			if err != nil {
				t.Fatal(err)
			}
			if got := integratedBatch(t, pol); got != tc.want {
				t.Errorf("%s with migration_batch %d: design batch %d, want %d", kind, tc.set, got, tc.want)
			}
		}
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
	// heat stands for the tracker-driven kinds; every integrated kind
	// goes through the adapter, where the design itself refuses.
	kinds := []string{"heat"}
	for _, kind := range Kinds() {
		if !TrackerDriven(kind) {
			kinds = append(kinds, kind)
		}
	}
	for _, kind := range kinds {
		pol, err := New(policyConfig(kind))
		if err != nil {
			t.Fatal(err)
		}
		if err := pol.Attach(eng, vm, tr); err != nil {
			t.Fatalf("%s: first attach: %v", kind, err)
		}
		if err := pol.Attach(eng, vm, tr); err == nil || !strings.Contains(err.Error(), pol.Name()) {
			t.Errorf("%s: double attach returned %v, want an error naming %s", kind, err, pol.Name())
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
// round buffers are reused and Counters lends the tracker's own slice,
// so a round allocates nothing.
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
				if n := testing.AllocsPerRun(50, round); n != 0 {
					t.Fatalf("steady-state round allocates %v times, want 0", n)
				}
			})
		}
	}
}

// fullSortSplit is splitRanked as a walk of the fully sorted pages.
func fullSortSplit(pages []pageScore, capacity int, node func(uint64) (int, bool)) (promote, victims []uint64) {
	sorted := slices.Clone(pages)
	sortByScoreDesc(sorted)
	for i := len(sorted) - 1; i >= capacity; i-- {
		if n, ok := node(sorted[i].gvpn); ok && n == 0 {
			victims = append(victims, sorted[i].gvpn)
		}
	}
	for _, pg := range sorted[:capacity] {
		if n, ok := node(pg.gvpn); ok && n != 0 {
			promote = append(promote, pg.gvpn)
		}
	}
	return promote, victims
}

// The selection gives ranked the promote and victim sequences of a full
// sort, on pages whose scores and recencies tie often.
func TestSplitRankedMatchesFullSort(t *testing.T) {
	rng := simrand.New(5)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		pages := make([]pageScore, n)
		resident := make(map[uint64]int, n) // gvpn -> node, 2 = unmapped
		gvpns := make([]uint64, n)
		for i := range gvpns {
			gvpns[i] = uint64(i) + 100
		}
		rng.Shuffle(n, func(i, j int) { gvpns[i], gvpns[j] = gvpns[j], gvpns[i] })
		for i, gvpn := range gvpns {
			pages[i] = pageScore{
				gvpn:  gvpn,
				score: float64(rng.Intn(4)) / 2,
				seen:  sim.Time(rng.Intn(3)),
			}
			resident[pages[i].gvpn] = rng.Intn(3)
		}
		if trial%10 == 0 {
			sortByScoreDesc(pages) // already ranked: the pivot's worst case
		}
		node := func(gvpn uint64) (int, bool) {
			nd := resident[gvpn]
			return nd, nd != 2
		}
		for _, capacity := range []int{0, 1, n / 2, n} {
			wantP, wantV := fullSortSplit(pages, capacity, node)
			gotP, gotV := splitRanked(slices.Clone(pages), capacity, node, nil, nil)
			if !slices.Equal(gotP, wantP) || !slices.Equal(gotV, wantV) {
				t.Fatalf("trial %d, %d pages, capacity %d:\npromote %v\nwant    %v\nvictims %v\nwant    %v",
					trial, n, capacity, gotP, wantP, gotV, wantV)
			}
		}
	}
}

// selectHottest leaves the k hottest pages in front on inputs of every
// size up to a few pages, including k at both ends.
func TestSelectHottestHead(t *testing.T) {
	rng := simrand.New(9)
	for n := 0; n < 40; n++ {
		for k := 0; k <= n; k++ {
			pages := make([]pageScore, n)
			for i := range pages {
				pages[i] = pageScore{gvpn: uint64(i), score: float64(rng.Intn(2)), seen: sim.Time(rng.Intn(2))}
			}
			want := slices.Clone(pages)
			sortByScoreDesc(want)
			selectHottest(pages, k)
			head := slices.Clone(pages[:k])
			sortByScoreDesc(head)
			if !slices.Equal(head, want[:k]) {
				t.Fatalf("n=%d k=%d: head %v, want %v", n, k, head, want[:k])
			}
		}
	}
}
