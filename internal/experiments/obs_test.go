package experiments

import (
	"strings"
	"testing"

	"demeter/internal/obs"
)

// TestReportCarriesMetricsSection: every report gains a metrics snapshot
// section, rendered post-barrier and byte-identical across -parallel
// (the byte-identity half rides on TestRunExperimentsByteIdentical,
// which goes through the same RunExperiments path).
func TestReportCarriesMetricsSection(t *testing.T) {
	e, ok := Get("table2")
	if !ok {
		t.Fatal("table2 not registered")
	}
	reports := RunExperiments(Tiny(), []Experiment{e})
	out := reports[0].Output
	for _, want := range []string{"metrics snapshot (", "vm_accesses", "tlb_lookups"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// TestEventCaptureAndGlobalMetrics drives the per-run surface the CLI
// reads: under Scale.Events a report carries every leaf's journal, and
// its Metrics merge every leaf's snapshot, which is also all that
// GlobalMetrics gains from the run. Without Events a report carries no
// journals.
func TestEventCaptureAndGlobalMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster runs in -short mode")
	}
	e, ok := Get("figure6")
	if !ok {
		t.Fatal("figure6 not registered")
	}
	s := Tiny()
	s.Events = true
	ResetObsCollection()
	defer ResetObsCollection()
	r := RunExperiments(s, []Experiment{e})[0]
	var got, want strings.Builder
	if err := GlobalMetrics().WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := r.Metrics.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("GlobalMetrics after one report differs from its Metrics")
	}

	byName := map[string]float64{}
	for _, m := range r.Metrics.Condense().Metrics {
		byName[m.Name] = m.Value
	}
	if byName["vm_accesses"] == 0 {
		t.Errorf("report vm_accesses = 0; metrics did not accumulate: %v", byName)
	}
	if byName["balloon_inflations"] == 0 {
		t.Errorf("report balloon_inflations = 0; balloon hooks did not publish")
	}
	if len(r.Metrics.Top(3)) == 0 {
		t.Error("Top(3) returned nothing")
	}

	if len(r.Events) == 0 {
		t.Fatal("no journals captured with Events set")
	}
	var sawBalloonOp bool
	for i, c := range r.Events {
		if c.Label == "" {
			t.Errorf("cluster %d has no label", i)
		}
		for _, ev := range c.Events {
			if ev.Type == obs.EvBalloonOp {
				sawBalloonOp = true
			}
		}
	}
	if !sawBalloonOp {
		t.Error("no balloon_op events journaled across a provisioning experiment")
	}

	t2, _ := Get("table2")
	if got := RunExperiments(Tiny(), []Experiment{t2})[0].Events; got != nil {
		t.Errorf("report without Events carries %d journal(s)", len(got))
	}
}

// TestGlobalMetricsFoldsReports pins the contract the benchmark's
// suite workload relies on: GlobalMetrics is the report-order merge of
// the Metrics of every report RunExperiments returned since
// ResetObsCollection.
func TestGlobalMetricsFoldsReports(t *testing.T) {
	ResetObsCollection()
	defer ResetObsCollection()
	var want obs.Snapshot
	for _, id := range []string{"table2", "figure4"} {
		e, _ := Get(id)
		for _, r := range RunExperiments(Tiny(), []Experiment{e}) {
			want = want.Merge(r.Metrics)
		}
	}
	var got, exp strings.Builder
	if err := GlobalMetrics().WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteJSON(&exp); err != nil {
		t.Fatal(err)
	}
	if got.String() != exp.String() {
		t.Errorf("GlobalMetrics differs from the merge of the returned reports\n--- got:\n%s\n--- want:\n%s", got.String(), exp.String())
	}
	if want.Total("vm_accesses") == 0 {
		t.Error("reports carried no vm_accesses")
	}
	ResetObsCollection()
	if n := len(GlobalMetrics().Metrics); n != 0 {
		t.Errorf("GlobalMetrics after reset holds %d metrics", n)
	}
}
