// Observability plumbing for the harness. Every leaf cluster run owns a
// private obs.Obs (same isolation rule as its private sim.Engine); at
// teardown the leaf's metrics snapshot, and its journal when the scale
// captures events, flow into the running experiment's accumulator, and
// from there into that experiment's Report:
//
//   - Report.Metrics folds the leaf snapshots in a canonical order
//     (sorted by their JSON serialization). Leaves finish in
//     schedule-dependent order under -parallel, and float64 sums are not
//     associative, so the canonical fold is what keeps Metrics, and the
//     report's "metrics snapshot" section rendered from it,
//     byte-identical at every -parallel setting.
//   - Report.Events keeps each leaf's journal in arrival order. A leaf's
//     journal holds events only under Scale.Events. Otherwise it is
//     count-only: it still publishes the journal_events and
//     journal_dropped counters a ring of the same capacity would, and
//     allocates no ring.

package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"demeter/internal/obs"
)

// CapturedCluster is one leaf run's retained event journal.
type CapturedCluster struct {
	// Label names the run (experiment/design it belonged to).
	Label string
	// Events is the journal content, oldest first.
	Events []obs.Event
}

// obsAccum collects one experiment invocation's leaf results. The
// pointer travels inside Scale (a value type), so every helper that
// receives the experiment's Scale contributes to the same accumulator.
type obsAccum struct {
	mu    sync.Mutex
	snaps []obs.Snapshot
	runs  []CapturedCluster
}

// collect files one leaf run's end-of-run snapshot, and its journal
// events when s captures them, with the running experiment. Without an
// accumulator (direct API use, tests) it does nothing.
func (s Scale) collect(label string, snap obs.Snapshot, events []obs.Event) {
	a := s.obsAcc
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.snaps = append(a.snaps, snap)
	if s.Events {
		a.runs = append(a.runs, CapturedCluster{Label: label, Events: events})
	}
}

// merged folds the leaf snapshots in canonical (JSON-sorted) order, so
// the float sums, and with them the bytes, are schedule-independent.
// Call it after every leaf has finished.
func (a *obsAccum) merged() obs.Snapshot {
	keys := make([]string, len(a.snaps))
	for i, s := range a.snaps {
		data, err := json.Marshal(s)
		if err != nil {
			panic(fmt.Sprintf("experiments: snapshot marshal: %v", err))
		}
		keys[i] = string(data)
	}
	order := make([]int, len(a.snaps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })

	var merged obs.Snapshot
	for _, i := range order {
		merged = merged.Merge(a.snaps[i])
	}
	return merged
}

// section renders an experiment's merged metrics, condensed across VMs
// and clusters.
func (a *obsAccum) section(merged obs.Snapshot) string {
	if len(a.snaps) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\nmetrics snapshot (%d cluster run(s), condensed):\n", len(a.snaps))
	for _, m := range merged.Condense().Metrics {
		switch m.Kind {
		case obs.KindCounter:
			fmt.Fprintf(&b, "  %-26s %d\n", m.Name, uint64(m.Value))
		case obs.KindGauge:
			fmt.Fprintf(&b, "  %-26s %.6g\n", m.Name, m.Value)
		case obs.KindHistogram:
			h := m.Hist
			fmt.Fprintf(&b, "  %-26s count=%d mean=%.6g p50=%.6g p99=%.6g max=%.6g\n",
				m.Name, h.Count, h.Mean, h.P50, h.P99, h.Max)
		}
	}
	return b.String()
}

// The fold of every report RunExperiments returned since the last
// ResetObsCollection. Only GlobalMetrics reads it; a report's own
// Metrics is the per-run result.
var (
	obsMu sync.Mutex //lint:allow crossshard the serialization point itself: every access to obsGlobal goes through it
	//lint:allow crossshard merged under obsMu after a RunExperiments call returns its reports; never read inside a run
	obsGlobal obs.Snapshot
)

// GlobalMetrics returns the report-order merge of the Metrics of every
// report RunExperiments returned since the last ResetObsCollection.
func GlobalMetrics() obs.Snapshot {
	obsMu.Lock()
	defer obsMu.Unlock()
	return obsGlobal
}

// ResetObsCollection clears what GlobalMetrics returns.
func ResetObsCollection() {
	obsMu.Lock()
	obsGlobal = obs.Snapshot{}
	obsMu.Unlock()
}
