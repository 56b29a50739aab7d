package engine

import (
	"testing"

	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/pebs"
	"demeter/internal/sim"
	"demeter/internal/stats"
	"demeter/internal/workload"
)

func testRig(t *testing.T, fmemFrames, smemFrames uint64) (*sim.Engine, *hypervisor.VM) {
	t.Helper()
	eng := sim.NewEngine()
	m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(fmemFrames, smemFrames))
	vm, err := m.NewVM(hypervisor.VMConfig{
		VCPUs: 4, GuestFMEM: fmemFrames, GuestSMEM: smemFrames,
		FMEMBacking: 0, SMEMBacking: 1,
		PEBS: pebs.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.PEBS.Arm(); err != nil {
		t.Fatal(err)
	}
	return eng, vm
}

// TestBatchHoldsLargestTransaction pins the slice buffer against the
// widest canonical transaction: a smaller buffer could never hold one
// whole transaction, and a transactional executor would stall.
func TestBatchHoldsLargestTransaction(t *testing.T) {
	if max := workload.MaxTxnAccesses(); DefaultBatchSize < max {
		t.Fatalf("DefaultBatchSize %d < largest transaction %d accesses", DefaultBatchSize, max)
	}
}

func TestExecutorRunsWorkloadToCompletion(t *testing.T) {
	eng, vm := testRig(t, 256, 1024)
	wl := workload.Must(workload.NewGUPS(512, 10000, 1))
	x := NewExecutor(eng, vm, wl)
	finished := false
	x.OnFinish = func(*Executor) { finished = true }
	if !RunAll(eng, 100*sim.Second, x) {
		t.Fatal("workload did not finish")
	}
	eng.Run(eng.Now() + sim.Second) // let the finish callback fire
	if !finished {
		t.Fatal("OnFinish not called")
	}
	if x.OpsDone() != 512+10000 { // init sweep + main ops
		t.Fatalf("ops = %d", x.OpsDone())
	}
	if x.Runtime() <= 0 {
		t.Fatalf("runtime = %v", x.Runtime())
	}
}

func TestRuntimeBeforeFinishPanics(t *testing.T) {
	eng, vm := testRig(t, 64, 256)
	x := NewExecutor(eng, vm, workload.Must(workload.NewGUPS(128, 100, 1)))
	defer func() {
		if recover() == nil {
			t.Fatal("Runtime before finish did not panic")
		}
	}()
	x.Runtime()
}

func TestDoubleStartPanics(t *testing.T) {
	eng, vm := testRig(t, 64, 256)
	x := NewExecutor(eng, vm, workload.Must(workload.NewGUPS(128, 100, 1)))
	x.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("double start did not panic")
		}
	}()
	x.Start()
}

func TestContextSwitchesFireAtQuantum(t *testing.T) {
	eng, vm := testRig(t, 256, 1024)
	x := NewExecutor(eng, vm, workload.Must(workload.NewGUPS(512, 50000, 1)))
	RunAll(eng, 100*sim.Second, x)
	runtimeMs := float64(x.Runtime()) / float64(sim.Millisecond)
	got := float64(vm.Kernel.Stats().CtxSwitches)
	if got < runtimeMs*0.5 || got > runtimeMs*1.5 {
		t.Fatalf("context switches = %v over %.1fms runtime, want ~1/ms", got, runtimeMs)
	}
}

func TestStallSlowsRuntime(t *testing.T) {
	run := func(stallPerMs sim.Duration) sim.Duration {
		eng, vm := testRig(t, 256, 1024)
		if stallPerMs > 0 {
			eng.StartTicker(sim.Millisecond, func(sim.Time) { vm.Stall(stallPerMs) })
		}
		x := NewExecutor(eng, vm, workload.Must(workload.NewGUPS(512, 20000, 1)))
		if !RunAll(eng, 100*sim.Second, x) {
			t.Fatal("did not finish")
		}
		return x.Runtime()
	}
	base := run(0)
	// 2ms of management CPU per 1ms wall on a 4-vCPU guest steals half
	// the machine.
	stalled := run(2 * sim.Millisecond)
	if stalled < base*13/10 {
		t.Fatalf("50%% steal only grew runtime %v -> %v", base, stalled)
	}
}

func TestSlowTierPlacementSlowsRuntime(t *testing.T) {
	run := func(fmem uint64) sim.Duration {
		eng, vm := testRig(t, fmem, 4096)
		x := NewExecutor(eng, vm, workload.Must(workload.NewGUPS(1024, 30000, 1)))
		if !RunAll(eng, 100*sim.Second, x) {
			t.Fatal("did not finish")
		}
		return x.Runtime()
	}
	allFast := run(2048) // whole footprint fits FMEM
	mostSlow := run(64)  // almost everything lands on PMEM
	if mostSlow <= allFast {
		t.Fatalf("PMEM-resident run (%v) not slower than DRAM-resident (%v)", mostSlow, allFast)
	}
}

func TestTxnHistogramRecordsSiloTransactions(t *testing.T) {
	eng, vm := testRig(t, 256, 1024)
	wl := workload.Must(workload.NewSilo(512, 2000, 1))
	x := NewExecutor(eng, vm, wl)
	x.TxnHist = stats.NewHistogram()
	if !RunAll(eng, 100*sim.Second, x) {
		t.Fatal("did not finish")
	}
	if x.TxnHist.Count() != 2000 {
		t.Fatalf("txn count = %d", x.TxnHist.Count())
	}
	// A transaction of 8 accesses must cost at least 8 DRAM loads.
	if x.TxnHist.Min() < float64(8*mem.SpecLocalDRAM.LoadLatency) {
		t.Fatalf("txn min %v implausibly low", x.TxnHist.Min())
	}
}

func TestSamplerRecordsThroughput(t *testing.T) {
	eng, vm := testRig(t, 256, 1024)
	x := NewExecutor(eng, vm, workload.Must(workload.NewGUPS(512, 50000, 1)))
	s := NewSampler(eng, x, 200*sim.Microsecond, "gups")
	RunAll(eng, 100*sim.Second, x)
	s.Stop()
	if s.Series.Len() == 0 {
		t.Fatal("no throughput samples")
	}
	if s.Series.Mean() <= 0 {
		t.Fatal("throughput mean not positive")
	}
}

func TestMultipleVMsProgressConcurrently(t *testing.T) {
	eng := sim.NewEngine()
	m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(1024, 4096))
	var xs []*Executor
	for i := 0; i < 3; i++ {
		vm, err := m.NewVM(hypervisor.VMConfig{
			VCPUs: 4, GuestFMEM: 256, GuestSMEM: 1024,
			FMEMBacking: 0, SMEMBacking: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, NewExecutor(eng, vm, workload.Must(workload.NewGUPS(512, 10000, uint64(i)))))
	}
	if !RunAll(eng, 100*sim.Second, xs...) {
		t.Fatal("not all VMs finished")
	}
	for i, x := range xs {
		if x.Runtime() <= 0 {
			t.Fatalf("vm %d runtime %v", i, x.Runtime())
		}
	}
}

func TestDeterministicRuntimes(t *testing.T) {
	run := func() sim.Duration {
		eng, vm := testRig(t, 256, 1024)
		x := NewExecutor(eng, vm, workload.Must(workload.NewGUPS(512, 20000, 99)))
		RunAll(eng, 100*sim.Second, x)
		return x.Runtime()
	}
	if run() != run() {
		t.Fatal("identical configs produced different runtimes")
	}
}

func TestRunAllHorizonExpires(t *testing.T) {
	eng, vm := testRig(t, 256, 4096)
	x := NewExecutor(eng, vm, workload.Must(workload.NewGUPS(1024, 10_000_000, 1)))
	if RunAll(eng, 10*sim.Millisecond, x) {
		t.Fatal("RunAll should report failure at a tiny horizon")
	}
}
