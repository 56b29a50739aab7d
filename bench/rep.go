package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"runtime/metrics"
	"strings"
	"time"

	"demeter/internal/obs"
)

// repResult is what one rep's process reports to the parent, as one JSON
// line on its standard output.
type repResult struct {
	Workload    string             `json:"workload"`
	Fingerprint string             `json:"fingerprint"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Errors      []string           `json:"errors,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
}

// rep is one repetition of a workload, run in a process of its own so
// every rep starts with empty caches and a fresh heap.
type rep struct {
	seed       uint64
	smoke      bool
	tr         *tracer // nil for untraced reps
	setupSpan  int
	setupStart time.Time
	runStart   time.Time
	runEnd     time.Time
	fp         hash.Hash
	out        repResult
}

// beginSetup marks the first constructor call of the workload: setup_s
// runs from here to beginRun.
func (r *rep) beginSetup() {
	r.setupStart = time.Now()
	r.setupSpan = r.tr.begin("setup")
}

// beginRun marks the end of set-up: the main run's first event follows.
func (r *rep) beginRun() {
	r.tr.end(r.setupSpan)
	r.runStart = time.Now()
}

func (r *rep) endRun() { r.runEnd = time.Now() }

func (r *rep) fail(format string, args ...any) {
	r.out.Failed++
	r.out.Errors = append(r.out.Errors, fmt.Sprintf(format, args...))
}

func (r *rep) set(name string, v float64) { r.out.Metrics[name] = v }

// runRep executes one rep of w and returns its result. A panic anywhere
// in the simulator counts as a failed operation, not a crash.
func runRep(w *workloadDef, r *rep) repResult {
	r.fp = sha256.New()
	r.out = repResult{Workload: w.name, Metrics: map[string]float64{}}
	func() {
		defer func() {
			if p := recover(); p != nil {
				r.out.Attempted++
				r.fail("panic: %v", p)
			}
		}()
		w.run(r)
	}()
	r.out.Fingerprint = hex.EncodeToString(r.fp.Sum(nil))
	if r.runEnd.IsZero() {
		return r.out
	}
	setup, run := r.runStart.Sub(r.setupStart).Seconds(), r.runEnd.Sub(r.runStart).Seconds()
	r.set("setup_s", setup)
	r.set("run_s", run)
	r.set("wall_s", setup+run)
	r.set("sim_accesses_per_s", r.out.Metrics["hypervisor.accesses"]/run)
	readRuntime(r)
	if r.tr != nil {
		spanMetrics(r)
	}
	return r.out
}

// layerCounts records the deterministic simulated statistics every
// workload exposes through its obs snapshot.
func layerCounts(r *rep, snap obs.Snapshot) {
	accesses := snap.Total("vm_accesses")
	r.set("hypervisor.accesses", accesses)
	hitRate := 0.0
	if lookups := snap.Total("tlb_lookups"); lookups > 0 {
		hitRate = snap.Total("tlb_hits") / lookups
	}
	r.set("tlb.hit_rate", hitRate)
	r.set("tlb.full_flushes", snap.Total("tlb_full_flushes"))
	r.set("tlb.single_flushes", snap.Total("tlb_single_flushes"))
	r.set("hypervisor.guest_faults", snap.Total("vm_guest_faults"))
	r.set("hypervisor.ept_faults", snap.Total("vm_ept_faults"))
	samples, dropped := snap.Total("pebs_samples"), snap.Total("pebs_dropped")
	r.set("pebs.samples", samples)
	dropFrac := 0.0
	if samples+dropped > 0 {
		dropFrac = dropped / (samples + dropped)
	}
	r.set("pebs.drop_frac", dropFrac)
	for _, comp := range []string{"track", "classify", "migrate"} {
		var sec float64
		for _, m := range snap.Matching("cpu_guest_seconds") {
			if strings.HasSuffix(m.Labels, "component="+comp) {
				sec += m.Value
			}
		}
		r.set("ledger."+comp+"_ms", sec*1e3)
	}
	r.set("ledger.host_ms", snap.Total("cpu_host_seconds")*1e3)
	r.set("migrate.rollbacks", snap.Total("migrate_rollbacks")+snap.Total("swap_rollbacks"))
	r.set("balloon.inflations", snap.Total("balloon_inflations"))
}

// readRuntime records the Go runtime's allocation and GC totals for the
// rep's process. alloc_mb, the bytes the rep allocated, is the
// end-to-end memory metric: every byte of the simulation's state and
// every byte of its garbage passes through it, and unlike peak RSS it
// does not depend on when the collector happened to run.
func readRuntime(r *rep) {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	value := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	r.set("alloc_mb", value(samples[0])/(1<<20))
	r.set("runtime.gc_cycles", value(samples[1]))
	gcFrac := 0.0
	if total := value(samples[3]); total > 0 {
		gcFrac = value(samples[2]) / total
	}
	r.set("runtime.gc_cpu_frac", gcFrac)
}

// spanMetrics turns the rep's trace into per-layer times. Cluster steps
// split into engine.slice (whose self time is the hypervisor access path)
// and mgmt.tick; serve commands and suite experiments get one metric
// per span name.
func spanMetrics(r *rep) {
	r.set("trace.run_s", r.out.Metrics["run_s"])
	for name, a := range r.tr.totals() {
		switch {
		case name == "engine.slice":
			r.set("engine.slice_s", a.total.Seconds())
			r.set("hypervisor.access_s", a.self.Seconds())
		case name == "setup":
			r.set("trace.setup_s", a.total.Seconds())
		case name == "workload.fill" || name == "mgmt.tick" || name == "balloon.settle":
			r.set(name+"_s", a.total.Seconds())
		case strings.HasPrefix(name, "experiment."):
			r.set(name+"_s", a.total.Seconds())
		case name == "obs.snapshot" || strings.HasPrefix(name, "daemon."):
			r.set(name+"_ms", a.total.Seconds()*1e3/float64(a.count))
		}
	}
}

// writeRep prints the rep's result as the last line of w.
func writeRep(w io.Writer, res repResult) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
