package experiments

import (
	"math"
	"strings"
	"testing"

	"demeter/internal/stats"
	"demeter/internal/workload"
)

func TestSplitScalePreservesTotals(t *testing.T) {
	s := Quick()
	for _, n := range []int{1, 3, 9} {
		sc := s.splitScale(n)
		if sc.VMFMEM*uint64(n) != s.VMFMEM*uint64(s.VMs) {
			t.Errorf("n=%d: total FMEM changed: %d", n, sc.VMFMEM*uint64(n))
		}
		if sc.VMSMEM*uint64(n) != s.VMSMEM*uint64(s.VMs) {
			t.Errorf("n=%d: total SMEM changed", n)
		}
	}
}

func TestGupsSplitPreservesTotals(t *testing.T) {
	s := Tiny()
	for _, n := range []int{1, 3} {
		mk := s.gupsSplit(n)
		var fp, ops uint64
		for i := 0; i < n; i++ {
			g := mk(i).(*workload.GUPS)
			fp += g.FootprintPages
			ops += g.Ops
		}
		if fp != s.GUPSFootprint*uint64(s.VMs) {
			t.Errorf("n=%d: total footprint %d, want %d", n, fp, s.GUPSFootprint*uint64(s.VMs))
		}
		if ops != s.GUPSOps*uint64(s.VMs) {
			t.Errorf("n=%d: total ops %d", n, ops)
		}
	}
	// Distinct seeds per VM: identical streams would fake contention away.
	mk := s.gupsSplit(2)
	if mk(0).(*workload.GUPS).Seed == mk(1).(*workload.GUPS).Seed {
		t.Error("per-VM GUPS seeds must differ")
	}
}

func TestScaleParametersSane(t *testing.T) {
	for _, s := range []Scale{Quick(), Tiny()} {
		if s.VMSMEM != 5*s.VMFMEM {
			t.Errorf("%s: FMEM:SMEM is not 1:5 (%d:%d)", s.Name, s.VMFMEM, s.VMSMEM)
		}
		if s.GUPSFootprint > s.VMFMEM+s.VMSMEM {
			t.Errorf("%s: footprint exceeds VM memory", s.Name)
		}
		// Sample periods must be prime-ish (at minimum odd): composite
		// periods alias with strided access interleavings.
		if s.SamplePeriod%2 == 0 || s.MemtisSamplePeriod%2 == 0 {
			t.Errorf("%s: even sample period invites aliasing", s.Name)
		}
		if s.EpochPeriod <= 0 || s.ScanPeriod <= 0 || s.Horizon <= 0 {
			t.Errorf("%s: non-positive periods", s.Name)
		}
	}
}

func TestHostTopologyTiers(t *testing.T) {
	slowKind := func(tier string) string {
		return Tiny().newCluster(tier, 10, 20).m.Topo.SlowNode().Spec.Kind.String()
	}
	if slowKind("pmem") != "PMEM" {
		t.Error("pmem tier wrong")
	}
	if slowKind("cxl") != "CXL" {
		t.Error("cxl tier wrong")
	}
	if slowKind("") != "PMEM" {
		t.Error("default tier should be pmem")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown tier did not panic")
		}
	}()
	Tiny().newCluster("optane9000", 1, 1)
}

func TestClusterResultMetrics(t *testing.T) {
	s := Tiny()
	r := s.splitScale(2).RunCluster("static", 2, s.gupsSplit(2), clusterOptions{})
	if r.AvgRuntime() <= 0 {
		t.Fatal("bad avg runtime")
	}
	if r.Throughput() <= 0 {
		t.Fatal("bad throughput")
	}
	if r.CoresUsed() != 0 {
		t.Fatalf("static design used %v cores", r.CoresUsed())
	}
	if r.OpsTotal == 0 || r.Wall <= 0 {
		t.Fatal("missing totals")
	}
}

func TestHeatMapConcentration(t *testing.T) {
	h := HeatMap{Grid: [][]uint64{
		{100, 0, 0, 0},
		{100, 0, 0, 2},
	}}
	if got := h.concentration(1); got < 0.98 {
		t.Errorf("top-1 concentration = %v", got)
	}
	if got := h.concentration(4); got != 1 {
		t.Errorf("top-4 concentration = %v", got)
	}
	empty := HeatMap{}
	if empty.concentration(1) != 0 {
		t.Error("empty heatmap concentration should be 0")
	}
}

func TestHeatMapRender(t *testing.T) {
	h := HeatMap{Label: "x", Grid: [][]uint64{{0, 5, 10}}}
	out := h.render()
	if !strings.Contains(out, "x") || !strings.Contains(out, "@") {
		t.Errorf("render output:\n%s", out)
	}
}

func TestMeasureTierLatencyStability(t *testing.T) {
	a := Tiny().measureTierLatency("pmem", 1)
	b := Tiny().measureTierLatency("pmem", 1)
	if a != b {
		t.Fatalf("measurement not deterministic: %v vs %v", a, b)
	}
}

func TestTable1ReportMentionsPaperNumbers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full Table 1")
	}
	out := Table1(Tiny())
	for _, want := range []string{"H-TPP", "G-TPP", "Demeter", "Paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestGeoMeanRuntimesHelper(t *testing.T) {
	in := map[string][]float64{"a": {2, 8}, "b": {3, 3}}
	out := geoMeanRuntimes(in)
	if math.Abs(out["a"]-4) > 1e-9 || math.Abs(out["b"]-3) > 1e-9 {
		t.Fatalf("geomeans = %v", out)
	}
}

func TestSortedKeysHelper(t *testing.T) {
	got := sortedKeys(map[string]int{"b": 1, "a": 2, "c": 3})
	if len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("sortedKeys = %v", got)
	}
}

func TestStatsTableUsedByReports(t *testing.T) {
	tb := stats.NewTable("t", "a", "b")
	tb.AddRow(1, 2)
	if !strings.Contains(tb.String(), "t") {
		t.Fatal("table broken")
	}
}
