package experiments

import (
	"strings"
	"testing"

	"demeter/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "figure2", "figure4", "figure6", "figure7",
		"figure8", "figure9", "figure10", "figure11", "figure12",
		"ablation-draining", "ablation-translation", "ablation-relocation",
		"ablation-event", "ablation-pml", "ablation-damon", "ablation-granularity",
		"degraded",
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(All()), len(want))
	}
	// Ordering: tables first, figure2 before figure10.
	ids := []string{}
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	if ids[0] != "table1" || ids[1] != "table2" {
		t.Errorf("ordering wrong: %v", ids)
	}
	i2, i10 := -1, -1
	for i, id := range ids {
		if id == "figure2" {
			i2 = i
		}
		if id == "figure10" {
			i10 = i
		}
	}
	if i2 > i10 {
		t.Errorf("figure2 should precede figure10: %v", ids)
	}
}

func TestPolicyFactory(t *testing.T) {
	s := Tiny()
	for _, d := range []string{"static", "demeter", "tpp", "tpp-h", "memtis", "nomad", "vtmm", "damon"} {
		p := s.NewPolicy(d)
		if p == nil {
			t.Fatalf("nil policy for %q", d)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown design did not panic")
		}
	}()
	s.NewPolicy("bogus")
}

func TestAppFactoryCoversAll(t *testing.T) {
	s := Tiny()
	for _, app := range append(Apps, "gups") {
		w := s.NewApp(app, 1)
		if w == nil || w.TotalOps() == 0 {
			t.Fatalf("bad workload for %q", app)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	local := Tiny().measureTierLatency("pmem", 0)
	rdram := Tiny().measureTierLatency("cxl", 1)
	pmem := Tiny().measureTierLatency("pmem", 1)
	if !(local < rdram && rdram < pmem) {
		t.Fatalf("tier latency ordering broken: DRAM=%v R-DRAM=%v PMEM=%v", local, rdram, pmem)
	}
	// Warm measured latencies reflect loaded media latency (the TLB is
	// warm, so walks are rare).
	if local > 150 {
		t.Fatalf("warm local DRAM latency %v implausibly high", local)
	}
}

func TestTable1Shape(t *testing.T) {
	s := Tiny()
	footprint := s.GUPSFootprint * 2 // keep the single-VM run small
	fmem := footprint * 2 / 7
	type res struct {
		single, full uint64
		runtime      float64
	}
	results := map[string]res{}
	for _, design := range []string{"tpp-h", "tpp", "demeter"} {
		big := s
		big.VMFMEM, big.VMSMEM = fmem, footprint
		r := big.RunCluster(design, 1, func(int) workload.Workload {
			return workload.Must(workload.NewGUPS(footprint, s.GUPSOps*2, 1))
		}, clusterOptions{})
		results[design] = res{r.TLB.SingleFlushes, r.TLB.FullFlushes, r.Runtimes[0].Seconds()}
	}
	if results["tpp-h"].full == 0 {
		t.Error("H-TPP must issue full flushes")
	}
	if results["tpp"].full != 0 || results["demeter"].full != 0 {
		t.Error("guest designs must not issue full flushes")
	}
	if results["demeter"].single >= results["tpp"].single {
		t.Errorf("Demeter singles (%d) should undercut G-TPP's (%d)",
			results["demeter"].single, results["tpp"].single)
	}
	if !(results["tpp-h"].runtime > results["tpp"].runtime &&
		results["tpp"].runtime > results["demeter"].runtime) {
		t.Errorf("runtime ordering H-TPP > G-TPP > Demeter violated: %+v", results)
	}
}

func TestFigure2Shape(t *testing.T) {
	s := Tiny()
	cores := map[string]float64{}
	for _, d := range []string{"tpp", "memtis", "demeter"} {
		r := s.splitScale(s.VMs).RunCluster(d, s.VMs, s.gupsSplit(s.VMs), clusterOptions{})
		cores[d] = r.CoresUsed()
	}
	if !(cores["demeter"] < cores["memtis"] && cores["memtis"] < cores["tpp"]) {
		t.Errorf("core usage ordering violated: %+v", cores)
	}
}

func TestFigure4Shape(t *testing.T) {
	gva, gpa := Figure4Data(Tiny())
	cv, cp := gva.concentration(4), gpa.concentration(4)
	if cv <= cp {
		t.Errorf("virtual concentration (%.2f) should exceed physical (%.2f)", cv, cp)
	}
	if cv < 0.3 {
		t.Errorf("virtual hot bins hold only %.2f of accesses", cv)
	}
}

func TestFigure6Shape(t *testing.T) {
	s := Tiny()
	static := runProvisioned(s, provisionScheme{name: "static", design: "tpp", setup: staticSetup})
	virtio := runProvisioned(s, provisionScheme{name: "virtio", design: "tpp", setup: virtioSetup, fullCapacityNodes: true})
	demeterB := runProvisioned(s, provisionScheme{name: "demeter", design: "tpp", setup: demeterSetup, fullCapacityNodes: true})
	if virtio >= demeterB {
		t.Errorf("virtio balloon (%.3g) should underperform demeter balloon (%.3g)", virtio, demeterB)
	}
	if demeterB < static*0.85 {
		t.Errorf("demeter balloon (%.3g) should be comparable to static (%.3g)", demeterB, static)
	}
}

func TestFigure12Shape(t *testing.T) {
	s := Tiny()
	p99 := map[string]float64{}
	for _, d := range []string{"demeter", "tpp"} {
		r := s.RunCluster(d, 3, func(vmID int) workload.Workload {
			return s.NewApp("silo", uint64(vmID)+1)
		}, clusterOptions{txnLatency: true})
		if r.TxnHist.Count() == 0 {
			t.Fatalf("%s: no transactions recorded", d)
		}
		p99[d] = r.TxnHist.Quantile(0.99)
	}
	if p99["demeter"] >= p99["tpp"] {
		t.Errorf("Demeter p99 (%.0fns) should undercut TPP's (%.0fns)", p99["demeter"], p99["tpp"])
	}
}

func TestRunClusterDeterminism(t *testing.T) {
	s := Tiny()
	run := func() float64 {
		return s.splitScale(2).RunCluster("demeter", 2, s.gupsSplit(2), clusterOptions{}).AvgRuntime()
	}
	if run() != run() {
		t.Fatal("cluster runs are not reproducible")
	}
}

func TestRealWorkloadClusterRuns(t *testing.T) {
	// One representative app under two designs on both tiers; the full
	// matrix belongs to the bench harness.
	s := Tiny()
	for _, tier := range []string{"pmem", "cxl"} {
		for _, d := range []string{"demeter", "nomad"} {
			r := s.RunCluster(d, 2, func(vmID int) workload.Workload {
				return s.NewApp("xsbench", uint64(vmID)+1)
			}, clusterOptions{tier: tier})
			if r.AvgRuntime() <= 0 {
				t.Fatalf("%s/%s: bad runtime", tier, d)
			}
		}
	}
}

func TestFigure7ReportTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-design cluster run")
	}
	out := Figure7(Tiny())
	for _, d := range GuestDesigns {
		if !strings.Contains(out, d) {
			t.Errorf("figure7 report missing %q", d)
		}
	}
	if !strings.Contains(out, "Track") {
		t.Error("missing breakdown columns")
	}
}

func TestAblationReportsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster runs")
	}
	for _, id := range []string{"ablation-granularity", "ablation-damon"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		out := e.Run(Tiny())
		if len(out) < 100 {
			t.Errorf("%s: implausible report:\n%s", id, out)
		}
	}
}
