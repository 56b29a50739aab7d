// Parallel execution layer. Every experiment decomposes into independent
// leaf runs — one cluster per policy row, series point or ladder rung —
// and each leaf owns its own sim.Engine, fault injector and random
// sources, sharing no mutable state with its siblings (the fault registry
// is written only during package init, and the experiment table is a
// literal). That makes fan-out safe exactly the way Virtuoso's and gem5's
// parallel simulation campaigns are safe: each instance is
// seed-deterministic, so results are identical no matter where or when
// the instance executes. Reports are assembled in slice order and all
// cross-row derivations (baselines, ratios, geomeans) happen after
// collection, so parallel output is byte-identical to sequential output.
package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"demeter/internal/obs"
)

// workerTokens is the global leaf-run semaphore; nil means sequential.
// Only leaf jobs acquire tokens — the per-experiment coordinators in
// RunExperiments are token-free — so nested fan-out cannot deadlock.
//
//lint:allow crossshard atomic pointer swapped by SetParallelism before runs start; workers only Load it
var workerTokens atomic.Pointer[chan struct{}]

// SetParallelism configures the worker pool for subsequent runs: n > 1
// enables up to n concurrent leaf cluster runs, n == 1 restores strictly
// sequential execution, and n <= 0 selects runtime.NumCPU(). It returns
// the effective worker count. Call it before starting runs, not while
// experiments are executing.
func SetParallelism(n int) int {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	if n == 1 {
		workerTokens.Store(nil)
		return 1
	}
	ch := make(chan struct{}, n)
	workerTokens.Store(&ch)
	return n
}

// runIndexed executes n independent leaf jobs and returns their results
// in index order. With parallelism enabled every job runs on its own
// goroutine gated by the worker semaphore; otherwise jobs run inline in
// index order. Jobs must be self-contained cluster runs: they own their
// engine and share no mutable state, which is what makes the two modes
// produce identical results.
func runIndexed[T any](n int, job func(i int) T) []T {
	out := make([]T, n)
	tokens := workerTokens.Load()
	if tokens == nil {
		for i := 0; i < n; i++ {
			out[i] = job(i)
		}
		return out
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			*tokens <- struct{}{}
			defer func() { <-*tokens }()
			out[i] = job(i)
		}(i)
	}
	wg.Wait()
	return out
}

// FanOut runs n coordinator jobs: concurrently when parallelism is
// enabled, strictly in index order otherwise. Unlike runIndexed jobs,
// coordinators never acquire worker tokens, so a job may itself fan leaf
// cluster runs out through runIndexed (an experiment over its rows, the
// explorer over a candidate's ladder rungs) without deadlocking the pool.
// Jobs must write results only to their own index; both modes then
// produce identical output.
func FanOut(n int, job func(i int)) {
	if workerTokens.Load() == nil {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			job(i)
		}(i)
	}
	wg.Wait()
}

// Report is one experiment's rendered output, its wall time, and the
// observability its leaf runs left.
type Report struct {
	ID      string
	Title   string
	Output  string
	Elapsed time.Duration
	// Metrics is the canonical merge of every leaf run's end-of-run
	// snapshot, the same at every -parallel setting; the report's
	// "metrics snapshot" section renders it condensed.
	Metrics obs.Snapshot
	// Events holds each leaf run's journal in arrival order when the
	// scale's Events is set, and is nil otherwise.
	Events []CapturedCluster
}

// RunExperiments executes the given experiments and returns reports in
// input order. With parallelism enabled the experiments run concurrently
// (each coordinator goroutine is token-free; the leaf cluster runs inside
// each experiment contend for the worker pool), otherwise strictly in
// order. Either way Output and Metrics are identical: every experiment
// is deterministic given s.
func RunExperiments(s Scale, es []Experiment) []Report {
	reports := make([]Report, len(es))
	FanOut(len(es), func(i int) {
		start := time.Now() //lint:allow simdet host wall clock feeds only Report.Elapsed, never simulation state
		// Each experiment gets its own accumulator; its results are read
		// after Run returns (post-barrier), so leaf completion order under
		// -parallel cannot change the bytes.
		si := s
		si.obsAcc = &obsAccum{}
		out := es[i].Run(si)
		metrics := si.obsAcc.merged()
		reports[i] = Report{
			ID: es[i].ID, Title: es[i].Title, Output: out + si.obsAcc.section(metrics),
			Elapsed: time.Since(start), //lint:allow simdet host wall clock feeds only Report.Elapsed, never simulation state
			Metrics: metrics, Events: si.obsAcc.runs,
		}
	})
	obsMu.Lock() // GlobalMetrics folds the returned reports in order
	for _, r := range reports {
		obsGlobal = obsGlobal.Merge(r.Metrics)
	}
	obsMu.Unlock()
	return reports
}
