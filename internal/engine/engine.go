// Package engine drives workloads through simulated VMs. An Executor is a
// discrete-event actor: each activation runs a batch of guest memory
// accesses through the VM's hardware path (TLB → walks → tiers), divides
// the accumulated latency across the VM's vCPUs, folds in management
// stalls charged by the TMM policy, fires guest context switches at the
// scheduler quantum, and reschedules itself at the simulated completion
// time. Nine executors on one engine model the paper's nine concurrent
// VMs with zero shared-state races: the event queue serializes everything.
package engine

import (
	"fmt"

	"demeter/internal/hypervisor"
	"demeter/internal/obs"
	"demeter/internal/sim"
	"demeter/internal/stats"
	"demeter/internal/workload"
)

// Defaults.
const (
	// DefaultBatchSize is the number of accesses simulated per
	// activation; it must hold the largest workload transaction.
	DefaultBatchSize = 2048
	// defaultTimeslice is the guest scheduler quantum; context-switch
	// hooks (Demeter's sample draining) fire at this cadence.
	defaultTimeslice = sim.Millisecond
	// defaultPerAccessCompute is the CPU work between memory accesses
	// (index arithmetic, RNG, the non-load part of an RMW), charged per
	// access on top of the memory system cost. It calibrates simulated
	// throughput to the paper's measured GUPS rates.
	defaultPerAccessCompute = 200 * sim.Nanosecond
)

// Executor runs one workload inside one VM.
type Executor struct {
	VM *hypervisor.VM
	WL workload.Workload

	// TxnHist, when set and the workload is Transactional, records
	// per-transaction latencies (Figure 12).
	TxnHist *stats.Histogram
	// OnFinish runs when the workload completes.
	OnFinish func(*Executor)

	eng        *sim.Engine
	buf        []workload.Access
	sliceFn    func() // x.slice, bound once: After(…, x.slice) would allocate per activation
	txnSize    int
	initOps    uint64
	opsDone    uint64
	sinceCtx   sim.Duration
	started    bool
	finished   bool
	startedAt  sim.Time
	finishedAt sim.Time
	lastSlice  sim.Time
}

// NewExecutor wires a workload to a VM. The workload's Setup runs
// immediately (regions are reserved before simulation starts).
func NewExecutor(eng *sim.Engine, vm *hypervisor.VM, wl workload.Workload) *Executor {
	x := &Executor{
		VM:  vm,
		WL:  wl,
		eng: eng,
	}
	if tx, ok := wl.(workload.Transactional); ok {
		x.txnSize = tx.TxnAccesses()
	}
	wl.Setup(vm.Proc)
	x.initOps = wl.InitOps()
	return x
}

// Start schedules the first activation.
func (x *Executor) Start() {
	if x.started {
		panic("engine: executor started twice")
	}
	x.started = true
	x.startedAt = x.eng.Now()
	x.buf = make([]workload.Access, DefaultBatchSize)
	x.sliceFn = x.slice
	x.eng.After(0, x.sliceFn)
}

// OpsDone returns the number of accesses executed so far.
func (x *Executor) OpsDone() uint64 { return x.opsDone }

// LastActivity returns the timestamp of the executor's most recent
// activation: a one-store-per-slice progress stamp the delegation health
// monitor reads to tell "the VM is idle" apart from "the guest is lying"
// — stale telemetry only counts against a guest whose workload is
// demonstrably running.
func (x *Executor) LastActivity() sim.Time { return x.lastSlice }

// PublishObs registers a snapshot hook exposing the executor's progress
// (ops done, workload runtime once finished) under the given vm label.
// Like all obs publishing it costs nothing until a snapshot is taken.
func (x *Executor) PublishObs(o *obs.Obs, vmLabel string) {
	o.Reg.OnSnapshot(func(r *obs.Registry) {
		r.Counter("engine_ops_done", "vm", vmLabel).Set(x.opsDone)
		if x.finished {
			r.Gauge("engine_runtime_seconds", "vm", vmLabel).Set((x.finishedAt - x.startedAt).Seconds())
		}
	})
}

// Finished reports completion.
func (x *Executor) Finished() bool { return x.finished }

// Runtime returns the workload's simulated wall time; valid after finish.
func (x *Executor) Runtime() sim.Duration {
	if !x.finished {
		panic("engine: Runtime before finish")
	}
	return x.finishedAt - x.startedAt
}

// FinishedAt returns the completion timestamp.
func (x *Executor) FinishedAt() sim.Time { return x.finishedAt }

// Stop halts the executor before its workload completes: the pending
// slice becomes a no-op and no further activations are scheduled. A
// stopped executor reports Finished with Runtime covering start → stop,
// but OnFinish never fires (the workload did not complete). Serve-mode
// VM removal uses this to tear an executor out of a live engine.
func (x *Executor) Stop() {
	if x.finished || !x.started {
		x.finished = true
		return
	}
	x.finished = true
	x.finishedAt = x.eng.Now()
}

func (x *Executor) slice() {
	if x.finished {
		return
	}
	x.lastSlice = x.eng.Now()
	vm := x.VM
	// Management work (TMM kthreads, flush instructions) occupies one
	// vCPU; with the workload spread across all vCPUs the wall-clock
	// impact is the stolen share.
	elapsed := vm.TakeStall() / sim.Duration(vm.VCPUs)

	n, done := x.WL.Fill(x.buf)
	if n == 0 && !done {
		panic(fmt.Sprintf("engine: workload %s stalled (batch %d too small?)", x.WL.Name(), DefaultBatchSize))
	}

	var cpu sim.Duration
	if x.txnHistActive() {
		// Init-sweep accesses are not transactions; consume them plainly.
		skip := 0
		if x.opsDone < x.initOps {
			skip = int(x.initOps - x.opsDone)
			if skip > n {
				skip = n
			}
			cpu += vm.AccessBatch(x.buf[:skip])
		}
		// Spread pending management stall evenly over this batch's
		// transactions: TMM interference is what fattens tails.
		txns := (n - skip) / x.txnSize
		var stallShare sim.Duration
		if txns > 0 {
			stallShare = elapsed / sim.Duration(txns)
		}
		// Slide a [lo, hi) window across the transactions instead of
		// recomputing skip + t*txnSize bounds per iteration.
		lo := skip
		for t := 0; t < txns; t++ {
			hi := lo + x.txnSize
			txnCost := vm.AccessBatch(x.buf[lo:hi])
			x.TxnHist.Observe(float64(txnCost + stallShare))
			cpu += txnCost
			lo = hi
		}
		cpu += vm.AccessBatch(x.buf[lo:n])
	} else {
		cpu += vm.AccessBatch(x.buf[:n])
	}
	// vCPUs execute the stream in parallel.
	cpu += sim.Duration(n) * defaultPerAccessCompute
	elapsed += cpu / sim.Duration(vm.VCPUs)

	// Guest scheduler quanta that elapsed during this slice.
	x.sinceCtx += elapsed
	for x.sinceCtx >= defaultTimeslice {
		x.sinceCtx -= defaultTimeslice
		vm.Kernel.ContextSwitch()
		elapsed += vm.Machine.Cost.CtxSwitchCost
	}

	x.opsDone += uint64(n)
	if done {
		x.finished = true
		x.finishedAt = x.eng.Now() + elapsed
		// Finish exactly at the computed completion time.
		x.eng.After(elapsed, func() {
			if x.OnFinish != nil {
				x.OnFinish(x)
			}
		})
		return
	}
	if elapsed < 1 {
		elapsed = 1
	}
	x.eng.After(elapsed, x.sliceFn)
}

func (x *Executor) txnHistActive() bool { return x.TxnHist != nil && x.txnSize > 0 }

// RunAll starts every executor and runs the engine until all finish or
// the horizon passes. It returns true when all finished.
func RunAll(eng *sim.Engine, horizon sim.Duration, xs ...*Executor) bool {
	for _, x := range xs {
		x.Start()
	}
	deadline := eng.Now() + horizon
	for eng.Now() < deadline {
		allDone := true
		for _, x := range xs {
			if !x.Finished() {
				allDone = false
				break
			}
		}
		if allDone {
			// Drain remaining completion callbacks without running past
			// still-armed periodic tickers.
			return true
		}
		if !eng.Step() {
			break
		}
	}
	for _, x := range xs {
		if !x.Finished() {
			return false
		}
	}
	return true
}
