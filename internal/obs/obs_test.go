package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"demeter/internal/sim"
	"demeter/internal/simrand"
	"demeter/internal/stats"
)

func TestCounterGaugeGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops", "vm", "0")
	c.Add(3)
	c.Inc()
	if got := r.Counter("ops", "vm", "0").Value(); got != 4 {
		t.Fatalf("same key returned a different counter: got %d, want 4", got)
	}
	if got := r.Counter("ops", "vm", "1").Value(); got != 0 {
		t.Fatalf("different label must be a fresh counter, got %d", got)
	}
	g := r.Gauge("level")
	g.Set(2.5)
	g.Add(-1)
	if got := r.Gauge("level").Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	h := r.Histogram("lat")
	h.Observe(10)
	if got := r.Histogram("lat").Count(); got != 1 {
		t.Fatalf("same-key histogram count = %d, want 1", got)
	}
}

func TestLabelString(t *testing.T) {
	if got := labelString(nil); got != "" {
		t.Fatalf("empty labels = %q", got)
	}
	if got := labelString([]string{"vm", "3", "node", "fmem"}); got != "vm=3,node=fmem" {
		t.Fatalf("labelString = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list must panic")
		}
	}()
	labelString([]string{"vm"})
}

func TestSnapshotSortedAndHooksRun(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz").Add(1)
	r.Gauge("aa").Set(1)
	r.Counter("mm", "vm", "1").Add(2)
	r.Counter("mm", "vm", "0").Add(3)
	hookRan := false
	r.OnSnapshot(func(r *Registry) {
		hookRan = true
		r.Counter("hooked").Set(7)
	})
	s := r.Snapshot()
	if !hookRan {
		t.Fatal("OnSnapshot hook did not run")
	}
	var names []string
	for _, m := range s.Metrics {
		names = append(names, m.Name+"|"+m.Labels)
	}
	want := []string{"aa|", "hooked|", "mm|vm=0", "mm|vm=1", "zz|"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("snapshot order = %v, want %v", names, want)
	}
}

func TestSnapshotImmutableAfterTake(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.Observe(5)
	s := r.Snapshot()
	h.Observe(1000) // later observation must not leak into the snapshot
	if got := s.Metrics[0].Hist.Count; got != 1 {
		t.Fatalf("snapshot histogram count mutated: %d, want 1", got)
	}
}

func TestMergeAndCondense(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("ops", "vm", "0").Add(10)
	r1.Gauge("cpu", "vm", "0").Set(1.5)
	r1.Histogram("lat", "vm", "0").Observe(10)
	r2 := NewRegistry()
	r2.Counter("ops", "vm", "0").Add(5)
	r2.Counter("ops", "vm", "1").Add(7)
	r2.Histogram("lat", "vm", "0").Observe(30)

	m := r1.Snapshot().Merge(r2.Snapshot())
	find := func(s Snapshot, name, labels string) Metric {
		for _, mm := range s.Metrics {
			if mm.Name == name && mm.Labels == labels {
				return mm
			}
		}
		t.Fatalf("metric %s{%s} missing", name, labels)
		return Metric{}
	}
	if got := find(m, "ops", "vm=0").Value; got != 15 {
		t.Fatalf("merged ops{vm=0} = %v, want 15", got)
	}
	if got := find(m, "lat", "vm=0").Hist.Count; got != 2 {
		t.Fatalf("merged histogram count = %d, want 2", got)
	}
	c := m.Condense()
	if got := find(c, "ops", "").Value; got != 22 {
		t.Fatalf("condensed ops = %v, want 22", got)
	}
	for _, mm := range c.Metrics {
		if mm.Labels != "" {
			t.Fatalf("condense left labels on %s{%s}", mm.Name, mm.Labels)
		}
	}
}

// TestMergeDoesNotMutateInputs pins the clone-before-merge rule: folding
// the same snapshots repeatedly (the global collector does) must not
// double-count histogram observations.
func TestMergeDoesNotMutateInputs(t *testing.T) {
	r1 := NewRegistry()
	r1.Histogram("lat").Observe(10)
	r2 := NewRegistry()
	r2.Histogram("lat").Observe(20)
	s1, s2 := r1.Snapshot(), r2.Snapshot()
	for i := 0; i < 3; i++ {
		m := s1.Merge(s2)
		if got := m.Metrics[0].Hist.Count; got != 2 {
			t.Fatalf("round %d: merged count = %d, want 2 (inputs mutated)", i, got)
		}
	}
	if s1.Metrics[0].Hist.Count != 1 || s2.Metrics[0].Hist.Count != 1 {
		t.Fatal("Merge mutated its inputs")
	}
}

func TestTop(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(5)
	r.Counter("b").Add(50)
	r.Counter("c").Add(5)
	r.Gauge("huge").Set(1e12) // gauges never rank
	top := r.Snapshot().Top(2)
	if len(top) != 2 || top[0].Name != "b" || top[1].Name != "a" {
		t.Fatalf("Top(2) = %+v, want [b a] (ties by name)", top)
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops").Add(3)
	r.Histogram("lat").Observe(42)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("WriteJSON output does not parse: %v", err)
	}
	if len(back.Metrics) != 2 {
		t.Fatalf("round-trip lost metrics: %+v", back.Metrics)
	}
}

func TestJournalRingWraparound(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 6; i++ {
		j.Append(Event{Arg1: uint64(i)})
	}
	if j.Len() != 4 || j.Cap() != 4 {
		t.Fatalf("Len=%d Cap=%d, want 4/4", j.Len(), j.Cap())
	}
	if j.Total() != 6 || j.Dropped() != 2 {
		t.Fatalf("Total=%d Dropped=%d, want 6/2", j.Total(), j.Dropped())
	}
	es := j.Events()
	for i, e := range es {
		if want := uint64(i + 2); e.Arg1 != want {
			t.Fatalf("event %d = %d, want %d (oldest-first after wrap)", i, e.Arg1, want)
		}
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Append(Event{}) // must not panic
	if j.Events() != nil || j.Len() != 0 || j.Cap() != 0 || j.Total() != 0 || j.Dropped() != 0 {
		t.Fatal("nil journal must read as empty")
	}
}

func TestObsPublishesJournalCounters(t *testing.T) {
	o := New(2)
	o.Journal.Append(Event{})
	o.Journal.Append(Event{})
	o.Journal.Append(Event{})
	s := o.Reg.Snapshot()
	got := map[string]float64{}
	for _, m := range s.Metrics {
		got[m.Name] = m.Value
	}
	if got["journal_events"] != 3 || got["journal_dropped"] != 1 {
		t.Fatalf("journal counters = %v, want events=3 dropped=1", got)
	}
}

// A count-only journal counts exactly as a ring of the same capacity does,
// below, at and past capacity, and publishes the same journal counters;
// it retains no events.
func TestCountingJournalMatchesRing(t *testing.T) {
	rng := simrand.New(28)
	for _, capacity := range []int{1, 7, 64} {
		counts := []int{0, capacity - 1, capacity, capacity + 1, 3*capacity + rng.Intn(capacity)}
		for _, n := range counts {
			ring, counting := New(capacity), NewCounting(capacity)
			for i := 0; i < n; i++ {
				e := Event{At: sim.Time(rng.Uint64n(1 << 40)), Type: EventType(rng.Intn(9)), Arg1: rng.Uint64()}
				ring.Journal.Append(e)
				counting.Journal.Append(e)
			}
			r, c := ring.Journal, counting.Journal
			if r.Len() != c.Len() || r.Cap() != c.Cap() || r.Total() != c.Total() || r.Dropped() != c.Dropped() {
				t.Fatalf("cap %d, %d appends: ring Len/Cap/Total/Dropped %d/%d/%d/%d, count-only %d/%d/%d/%d",
					capacity, n, r.Len(), r.Cap(), r.Total(), r.Dropped(), c.Len(), c.Cap(), c.Total(), c.Dropped())
			}
			if n > 0 && r.Events() == nil {
				t.Fatalf("cap %d, %d appends: the ring retained nothing", capacity, n)
			}
			if c.Events() != nil {
				t.Fatalf("cap %d, %d appends: count-only Events = %v, want nil", capacity, n, c.Events())
			}
			rs, cs := ring.Reg.Snapshot(), counting.Reg.Snapshot()
			if !reflect.DeepEqual(rs, cs) {
				t.Fatalf("cap %d, %d appends: published %+v, count-only %+v", capacity, n, rs, cs)
			}
		}
	}
	if NewCounting(0).Journal.Cap() != DefaultJournalCap {
		t.Fatal("a count-only journal of capacity 0 is not DefaultJournalCap")
	}
}

func TestWriteTraceValidJSONL(t *testing.T) {
	events := []Event{
		{At: 1500, Type: EvMigrateBegin, VM: 0, Note: "swap", Arg1: 10, Arg2: 20},
		{At: 2500, Type: EvMigrateCommit, VM: 0, Note: "swap", Arg1: 10, Arg2: 20},
		{At: 3000, Type: EvPMI, VM: 1, Arg1: 64},
		{At: 4000, Type: EvBalloonOp, VM: 1, Note: "inflate", Arg1: 128, Arg2: 1},
		{At: 5000, Type: EvTLBFullFlush, VM: 0},
		{At: 6000, Type: EvFault, VM: -1, Note: "migrate.copy-fail", Arg1: math.Float64bits(1.5)},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, 3, "test-run", events); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", len(lines), err, sc.Text())
		}
		lines = append(lines, m)
	}
	if len(lines) != len(events)+1 {
		t.Fatalf("got %d lines, want %d (metadata + events)", len(lines), len(events)+1)
	}
	meta := lines[0]
	if meta["ph"] != "M" || meta["name"] != "process_name" || meta["pid"] != float64(3) {
		t.Fatalf("bad metadata line: %v", meta)
	}
	if name := meta["args"].(map[string]any)["name"]; name != "test-run" {
		t.Fatalf("process name = %v", name)
	}
	for i, l := range lines[1:] {
		if l["ph"] != "i" || l["s"] != "t" {
			t.Fatalf("event %d: not an instant event: %v", i, l)
		}
		if l["pid"] != float64(3) {
			t.Fatalf("event %d: pid = %v", i, l["pid"])
		}
	}
	// Spot-check payload decoding: simulated ns → µs, fault magnitude bits.
	if ts := lines[1]["ts"]; ts != 1.5 {
		t.Fatalf("ts = %v µs, want 1.5", ts)
	}
	fa := lines[len(lines)-1]["args"].(map[string]any)
	if fa["point"] != "migrate.copy-fail" || fa["magnitude"] != 1.5 {
		t.Fatalf("fault args = %v", fa)
	}
	ba := lines[4]["args"].(map[string]any)
	if ba["node"] != float64(0) {
		t.Fatalf("balloon node = %v, want 0 (Arg2-1)", ba["node"])
	}
}

func TestEventTypeStrings(t *testing.T) {
	for ty, want := range map[EventType]string{
		EvMigrateBegin: "migrate_begin", EvMigrateCommit: "migrate_commit",
		EvMigrateRollback: "migrate_rollback", EvPMI: "pmi",
		EvBalloonOp: "balloon_op", EvTLBFullFlush: "tlb_full_flush", EvFault: "fault",
	} {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
}

// TestHistStatsFromExternalHistogram pins AttachHistogram: the registry
// reports an externally owned histogram without copying observations.
func TestHistStatsFromExternalHistogram(t *testing.T) {
	r := NewRegistry()
	h := stats.NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	r.AttachHistogram("txn", h, "vm", "0")
	s := r.Snapshot()
	m := s.Metrics[0]
	if m.Name != "txn" || m.Hist == nil || m.Hist.Count != 100 {
		t.Fatalf("attached histogram snapshot = %+v", m)
	}
	if m.Hist.P50 < m.Hist.Min || m.Hist.P99 > m.Hist.Max {
		t.Fatalf("quantiles outside [min,max]: %+v", m.Hist)
	}
}

// TestSnapshotDeterministicAcrossFoldOrder mirrors the experiments
// accumulator's canonical-order fold: folding the same snapshot set in
// any arrival order after canonical sorting yields identical JSON.
func TestSnapshotDeterministicAcrossFoldOrder(t *testing.T) {
	mk := func(seed int) Snapshot {
		r := NewRegistry()
		r.Gauge("cpu").Set(0.1 * float64(seed+1))
		r.Counter("ops").Add(uint64(seed * 7))
		return r.Snapshot()
	}
	snaps := []Snapshot{mk(0), mk(1), mk(2)}
	fold := func(order []int) string {
		keyed := make([]string, len(snaps))
		for i, s := range snaps {
			b, _ := json.Marshal(s)
			keyed[i] = string(b)
		}
		// canonical order regardless of arrival order
		idx := append([]int(nil), order...)
		for i := 0; i < len(idx); i++ {
			for j := i + 1; j < len(idx); j++ {
				if keyed[idx[j]] < keyed[idx[i]] {
					idx[i], idx[j] = idx[j], idx[i]
				}
			}
		}
		var m Snapshot
		for _, i := range idx {
			m = m.Merge(snaps[i])
		}
		b, _ := json.Marshal(m)
		return string(b)
	}
	want := fold([]int{0, 1, 2})
	for _, order := range [][]int{{2, 1, 0}, {1, 0, 2}, {2, 0, 1}} {
		if got := fold(order); got != want {
			t.Fatalf("fold order %v changed bytes:\n%s\nvs\n%s", order, got, want)
		}
	}
}

func ExampleRegistry_Counter() {
	r := NewRegistry()
	r.Counter("migrations", "vm", "0").Add(2)
	s := r.Snapshot()
	fmt.Printf("%s{%s} = %d\n", s.Metrics[0].Name, s.Metrics[0].Labels, uint64(s.Metrics[0].Value))
	// Output: migrations{vm=0} = 2
}
