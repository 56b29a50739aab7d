package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the public API it calls.
type span struct {
	name     string
	start    time.Duration // since the tracer's origin
	dur      time.Duration
	parent   int // index of the enclosing span, -1 for a root
	children int
}

// tracer keeps spans in memory; they are aggregated and written out only
// when the rep ends, so recording costs two clock reads and an append.
// A nil *tracer records nothing, which is how untraced reps run.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		t.spans[parent].children++
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].dur = time.Since(t.origin) - t.spans[i].start
	t.open = t.open[:len(t.open)-1]
}

// endStep closes a sim.step span, naming it engine.slice when a workload
// fill ran inside it (an executor activation) and mgmt.tick otherwise
// (policy, tracker, balloon and completion events).
func (t *tracer) endStep(i int) {
	if t == nil {
		return
	}
	t.end(i)
	if t.spans[i].children > 0 {
		t.spans[i].name = "engine.slice"
	} else {
		t.spans[i].name = "mgmt.tick"
	}
}

// spanTotals is the per-name aggregate of a trace.
type spanTotals struct {
	count int
	total time.Duration
	self  time.Duration // total minus the time covered by child spans
}

func (t *tracer) totals() map[string]*spanTotals {
	out := make(map[string]*spanTotals)
	childTime := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childTime[s.parent] += s.dur
		}
	}
	for i, s := range t.spans {
		a := out[s.name]
		if a == nil {
			a = &spanTotals{}
			out[s.name] = a
		}
		a.count++
		a.total += s.dur
		a.self += s.dur - childTime[i]
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), loadable in chrome://tracing or
// ui.perfetto.dev. begin appends spans in start order, so they are
// written as recorded.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// bufio.Writer errors are sticky: checking Flush covers every write.
	w := bufio.NewWriter(f)
	w.WriteString("{\"traceEvents\":[\n")
	for i, s := range t.spans {
		name, _ := json.Marshal(s.name) // marshalling a string cannot fail
		sep := ",\n"
		if i == len(t.spans)-1 {
			sep = "\n"
		}
		fmt.Fprintf(w, "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}%s",
			name, float64(s.start.Nanoseconds())/1e3, float64(s.dur.Nanoseconds())/1e3, sep)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
