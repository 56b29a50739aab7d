package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// seqVsPar runs f sequentially and with worker pools of 4 and 8 and
// returns the sequential output plus the 4-worker one; the 8-worker run
// is asserted against the 4-worker run inline, so a caller comparing
// seq == par has covered all three widths. Parallelism is restored to
// sequential afterward so other tests are unaffected.
func seqVsPar(t *testing.T, f func() string) (seq, par string) {
	t.Helper()
	SetParallelism(1)
	seq = f()
	defer SetParallelism(1)
	SetParallelism(4)
	par = f()
	SetParallelism(8)
	if par8 := f(); par8 != par {
		t.Errorf("8-worker output differs from 4-worker output")
	}
	return seq, par
}

func TestRunIndexedOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 4} {
		SetParallelism(workers)
		got := runIndexed(17, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d holds %d, want %d", workers, i, v, i*i)
			}
		}
	}
	SetParallelism(1)
}

func TestSetParallelism(t *testing.T) {
	if got := SetParallelism(4); got != 4 {
		t.Errorf("SetParallelism(4) = %d", got)
	}
	if p := workerTokens.Load(); p == nil || cap(*p) != 4 {
		t.Errorf("worker pool after SetParallelism(4) is %v, want 4 tokens", p)
	}
	if got := SetParallelism(0); got < 1 {
		t.Errorf("SetParallelism(0) = %d, want >= 1", got)
	}
	if got := SetParallelism(1); got != 1 {
		t.Errorf("SetParallelism(1) = %d", got)
	}
	if p := workerTokens.Load(); p != nil {
		t.Errorf("worker pool after SetParallelism(1) has %d tokens, want sequential (nil)", cap(*p))
	}
}

// TestParallelExperimentByteIdentical is the tentpole guarantee: fanning
// an experiment's leaf cluster runs across workers yields the exact bytes
// sequential execution produces. Table1 covers single-big-VM clusters and
// the post-collection ratio column; figure2 covers the (VM count × design)
// grid.
func TestParallelExperimentByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster runs in -short mode")
	}
	s := Tiny()
	for _, id := range []string{"table1", "figure2"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		seq, par := seqVsPar(t, func() string { return e.Run(s) })
		if seq != par {
			t.Errorf("%s: parallel output differs from sequential\n--- sequential:\n%s\n--- parallel:\n%s", id, seq, par)
		}
	}
}

// TestRunExperimentsByteIdentical fans out at the outer level too: whole
// experiments run concurrently and the assembled reports must match the
// sequential ones byte for byte, in input order.
func TestRunExperimentsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster runs in -short mode")
	}
	s := Tiny()
	var es []Experiment
	for _, id := range []string{"table2", "ablation-damon"} {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		es = append(es, e)
	}
	run := func() string {
		var b strings.Builder
		for _, r := range RunExperiments(s, es) {
			b.WriteString(r.ID)
			b.WriteByte('\n')
			b.WriteString(r.Output)
			b.WriteByte('\n')
		}
		return b.String()
	}
	seq, par := seqVsPar(t, run)
	if seq != par {
		t.Errorf("parallel suite differs from sequential\n--- sequential:\n%s\n--- parallel:\n%s", seq, par)
	}
}

// TestChaosParallelFaultStreamsIndependent guards the fault seams: each
// rung builds its own injector from the config seed, so rungs running
// concurrently must draw identical fault streams to rungs running alone —
// the report embeds per-point fired/checked counters, so any cross-rung
// contamination shows up as a byte diff.
func TestChaosParallelFaultStreamsIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster runs in -short mode")
	}
	s := Tiny()
	cfg := DefaultChaosConfig()
	cfg.VMs = 2
	cfg.Ladder = []float64{0, 1, 2}
	run := func() string {
		report, err := RunChaos(s, cfg)
		if err != nil {
			t.Fatalf("chaos failed: %v\n%s", err, report)
		}
		return report
	}
	seq, par := seqVsPar(t, run)
	if seq != par {
		t.Errorf("parallel chaos ladder differs from sequential\n--- sequential:\n%s\n--- parallel:\n%s", seq, par)
	}
	if !strings.Contains(seq, "fault ") {
		t.Fatalf("report carries no fault counters:\n%s", seq)
	}
}

// TestRunIndexedConcurrentCallers exercises the coordinator pattern: many
// token-free goroutines each fan out leaf jobs through the shared pool.
func TestRunIndexedConcurrentCallers(t *testing.T) {
	SetParallelism(3)
	defer SetParallelism(1)
	var wg sync.WaitGroup
	out := make([][]int, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out[g] = runIndexed(9, func(i int) int { return g*100 + i })
		}(g)
	}
	wg.Wait()
	for g, vs := range out {
		for i, v := range vs {
			if v != g*100+i {
				t.Fatalf("caller %d slot %d holds %d", g, i, v)
			}
		}
	}
}

// TestDegradedCompletesWithTwoWorkers runs an experiment whose jobs
// themselves fan out (each degraded mode runs a chaos ladder) on a pool
// of two workers, the width at which treating the modes as leaf jobs
// left both tokens held while their rungs waited for one. A hang fails
// after a bounded wait instead of stalling the suite.
func TestDegradedCompletesWithTwoWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cluster runs in -short mode")
	}
	s := Tiny()
	SetParallelism(1)
	seq := Degraded(s)
	defer SetParallelism(1)
	SetParallelism(2)
	done := make(chan string, 1)
	go func() { done <- Degraded(s) }()
	select {
	case par := <-done:
		if par != seq {
			t.Errorf("2-worker degraded report differs from sequential\n--- sequential:\n%s\n--- parallel:\n%s", seq, par)
		}
	case <-time.After(time.Minute):
		t.Fatal("degraded did not finish within a minute on a 2-worker pool")
	}
}
