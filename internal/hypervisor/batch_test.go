package hypervisor

import (
	"fmt"
	"testing"

	"demeter/internal/fault"
	"demeter/internal/mem"
	"demeter/internal/pebs"
	"demeter/internal/sim"
	"demeter/internal/workload"
)

// diffVM builds one machine+VM pair for the differential harness. Both
// sides of a comparison get identical twins of this configuration.
func diffVM(t *testing.T, pcfg pebs.Config, faultSeed uint64) *VM {
	t.Helper()
	m := NewMachine(sim.NewEngine(), mem.PaperDRAMPMEM(64, 320))
	if faultSeed != 0 {
		m.Fault = fault.NewInjector(faultSeed)
		m.Fault.ArmMagnitude(mem.FaultSlowTierSpike, 0.05, 2.0)
	}
	vm, err := m.NewVM(VMConfig{
		VCPUs:       4,
		GuestFMEM:   64,
		GuestSMEM:   320,
		FMEMBacking: 0,
		SMEMBacking: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pcfg.SamplePeriod != 0 {
		u, err := pebs.NewUnit(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		vm.WirePEBS(u)
		if err := u.Arm(); err != nil {
			t.Fatal(err)
		}
	}
	return vm
}

// diffWorkloads enumerates every generator in internal/workload with a
// footprint that fits the 384-frame test guest.
func diffWorkloads() map[string]func() workload.Workload {
	return map[string]func() workload.Workload{
		"gups":      func() workload.Workload { return workload.Must(workload.NewGUPS(300, 4000, 7)) },
		"btree":     func() workload.Workload { return workload.Must(workload.NewBTree(280, 3000, 7)) },
		"xsbench":   func() workload.Workload { return workload.Must(workload.NewXSBench(300, 3000, 7)) },
		"liblinear": func() workload.Workload { return workload.Must(workload.NewLibLinear(300, 3000, 7)) },
		"bwaves":    func() workload.Workload { return workload.Must(workload.NewBwaves(100, 3000, 7)) },
		"silo":      func() workload.Workload { return workload.Must(workload.NewSilo(300, 400, 7)) },
		"graph500":  func() workload.Workload { return workload.Must(workload.NewGraph500(64, 3000, 7)) },
		"pagerank":  func() workload.Workload { return workload.Must(workload.NewPageRank(300, 1000, 7)) },
		"ycsb-a":    func() workload.Workload { return workload.Must(workload.NewYCSB(280, 1500, 7, workload.YCSBA)) },
		"ycsb-e":    func() workload.Workload { return workload.Must(workload.NewYCSB(280, 400, 7, workload.YCSBE)) },
	}
}

// chunkSizes cycles AccessBatch through awkward sub-batch lengths so the
// differential run exercises run-buffer flushes (batchRunCap), prefetch
// window remainders, and single-access batches. Equivalence must hold
// for any partition of the stream.
var chunkSizes = []int{1, 3, 8, 61, 127, 256, 509, 2048}

// diffReach is what one differential run reached on its scalar reference
// VM, so a variant can prove it exercised the transitions it names.
type diffReach struct {
	vm      VMStats
	pebs    pebs.Stats
	drained int // samples drained before the final drain
}

// add accumulates r into the running total d.
func (d *diffReach) add(r diffReach) {
	d.vm.LatencySpikes += r.vm.LatencySpikes
	d.pebs.PMIs += r.pebs.PMIs
	d.pebs.Dropped += r.pebs.Dropped
	d.pebs.Widenings += r.pebs.Widenings
	d.pebs.Narrowings += r.pebs.Narrowings
	d.drained += r.drained
}

// drainMode is how a differential run empties the twin PEBS buffers.
type drainMode int

const (
	// drainNever installs no PMI handler: a full buffer drops samples.
	drainNever drainMode = iota
	// drainOnPMI drains from the PMI handler on every buffer overshoot.
	drainOnPMI
	// drainEachRound drains both twins between access rounds, the way
	// Demeter drains at context switches, with no PMI handler: a buffer
	// that fills within a round drops until the round ends.
	drainEachRound
)

// runDifferential drives the same access stream through a scalar VM
// (per-access Access calls) and a batched VM (AccessBatch over varying
// chunk sizes) and asserts every observable is byte-identical: VM stats,
// TLB stats, PEBS stats + drained sample stream, and the summed cost. It
// returns what the scalar VM reached.
func runDifferential(t *testing.T, mkWL func() workload.Workload, pcfg pebs.Config, faultSeed uint64, drain drainMode) diffReach {
	t.Helper()
	scalarVM := diffVM(t, pcfg, faultSeed)
	batchVM := diffVM(t, pcfg, faultSeed)

	var scalarSamples, batchSamples []pebs.Sample
	if drain == drainOnPMI {
		scalarVM.PEBS.OnPMI = func() { scalarSamples = append(scalarSamples, scalarVM.PEBS.Drain()...) }
		batchVM.PEBS.OnPMI = func() { batchSamples = append(batchSamples, batchVM.PEBS.Drain()...) }
	}

	wlS, wlB := mkWL(), mkWL()
	wlS.Setup(scalarVM.Proc)
	wlB.Setup(batchVM.Proc)

	bufS := make([]workload.Access, 2048)
	bufB := make([]workload.Access, 2048)
	var costS, costB sim.Duration
	round, ci := 0, 0
	for {
		nS, doneS := wlS.Fill(bufS)
		nB, doneB := wlB.Fill(bufB)
		if nS != nB || doneS != doneB {
			t.Fatalf("twin workloads diverged: (%d,%v) vs (%d,%v)", nS, doneS, nB, doneB)
		}
		for i := 0; i < nS; i++ {
			if bufS[i] != bufB[i] {
				t.Fatalf("twin workloads produced different access %d: %+v vs %+v", i, bufS[i], bufB[i])
			}
			costS += scalarVM.Access(bufS[i].GVA, bufS[i].Write)
		}
		for lo := 0; lo < nB; {
			hi := lo + chunkSizes[ci%len(chunkSizes)]
			ci++
			if hi > nB {
				hi = nB
			}
			costB += batchVM.AccessBatch(bufB[lo:hi])
			lo = hi
		}
		round++
		if costS != costB {
			t.Fatalf("round %d: cost diverged: scalar %d, batch %d", round, costS, costB)
		}
		if s, b := scalarVM.Stats(), batchVM.Stats(); s != b {
			t.Fatalf("round %d: VM stats diverged:\nscalar %+v\nbatch  %+v", round, s, b)
		}
		if s, b := scalarVM.TLB.Stats(), batchVM.TLB.Stats(); s != b {
			t.Fatalf("round %d: TLB stats diverged:\nscalar %+v\nbatch  %+v", round, s, b)
		}
		if scalarVM.PEBS != nil {
			if s, b := scalarVM.PEBS.Stats(), batchVM.PEBS.Stats(); s != b {
				t.Fatalf("round %d: PEBS stats diverged:\nscalar %+v\nbatch  %+v", round, s, b)
			}
		}
		if drain == drainEachRound && scalarVM.PEBS != nil {
			scalarSamples = append(scalarSamples, scalarVM.PEBS.Drain()...)
			batchSamples = append(batchSamples, batchVM.PEBS.Drain()...)
		}
		if doneS {
			break
		}
	}
	reach := diffReach{vm: scalarVM.Stats(), drained: len(scalarSamples)}
	if scalarVM.PEBS != nil {
		reach.pebs = scalarVM.PEBS.Stats()
		scalarSamples = append(scalarSamples, scalarVM.PEBS.Drain()...)
		batchSamples = append(batchSamples, batchVM.PEBS.Drain()...)
		if len(scalarSamples) != len(batchSamples) {
			t.Fatalf("PEBS stream lengths diverged: scalar %d, batch %d", len(scalarSamples), len(batchSamples))
		}
		for i := range scalarSamples {
			if scalarSamples[i] != batchSamples[i] {
				t.Fatalf("PEBS sample %d diverged: scalar %+v, batch %+v", i, scalarSamples[i], batchSamples[i])
			}
		}
	}
	return reach
}

// aggressivePEBS samples densely enough that every equivalence-relevant
// PEBS transition (period countdown, buffer overshoot, drop) occurs many
// times within a few thousand accesses.
func aggressivePEBS() pebs.Config {
	return pebs.Config{SamplePeriod: 7, LatencyThreshold: 64, BufferEntries: 33, Version: 5}
}

// TestAccessBatchEquivalence is the batched path's contract: for every
// workload generator, the batched path must be observably identical to
// the scalar path — same vm.stats, TLB stats, PEBS stats and sample
// stream, same total cost — under each harness variant. Summed over the
// workloads, each variant must also reach the transitions it names, or
// its equivalence would hold vacuously.
func TestAccessBatchEquivalence(t *testing.T) {
	variants := []struct {
		name      string
		pcfg      pebs.Config
		faultSeed uint64
		drain     drainMode
	}{
		// Dense sampling, buffer drops (no PMI handler), fault-free.
		{"pebs-drops", aggressivePEBS(), 0, drainNever},
		// PMI handler drains: full sample streams compared end to end.
		{"pebs-drain", aggressivePEBS(), 0, drainOnPMI},
		// Slow-tier spike injector armed: the batch path must consume the
		// per-point fault stream in exactly the scalar order.
		{"fault-spikes", aggressivePEBS(), 99, drainOnPMI},
		// Adaptive period: RecordBatch must fall back to the scalar loop.
		// Round drains leave PMI-free windows after each drain and storms
		// once the buffer refills, so the period both widens and narrows.
		{"pebs-adaptive", func() pebs.Config {
			c := aggressivePEBS()
			c.AdaptivePeriod = true
			return c
		}(), 0, drainEachRound},
		// PEBS disabled entirely (the pure stats/TLB/cost contract).
		{"no-pebs", pebs.Config{}, 0, drainNever},
	}
	reached := map[string]*diffReach{}
	for _, v := range variants {
		reached[v.name] = &diffReach{}
	}
	for name, mkWL := range diffWorkloads() {
		for _, v := range variants {
			t.Run(fmt.Sprintf("%s/%s", name, v.name), func(t *testing.T) {
				reached[v.name].add(runDifferential(t, mkWL, v.pcfg, v.faultSeed, v.drain))
			})
		}
	}
	if t.Failed() {
		return
	}
	if r := reached["pebs-drops"]; r.pebs.Dropped == 0 {
		t.Errorf("pebs-drops: no sample was dropped: %+v", *r)
	}
	if r := reached["pebs-drain"]; r.pebs.PMIs == 0 || r.drained == 0 {
		t.Errorf("pebs-drain: PMIs %d, samples drained by the handler %d; want both > 0", r.pebs.PMIs, r.drained)
	}
	if r := reached["fault-spikes"]; r.vm.LatencySpikes == 0 {
		t.Errorf("fault-spikes: no latency spike fired: %+v", *r)
	}
	if r := reached["pebs-adaptive"]; r.pebs.Widenings == 0 || r.pebs.Narrowings == 0 {
		t.Errorf("pebs-adaptive: widenings %d, narrowings %d; want both > 0", r.pebs.Widenings, r.pebs.Narrowings)
	}
}

// TestAccessBatchEmptyAndTiny pins the degenerate shapes: an empty batch
// is a no-op and a one-access batch equals one scalar Access.
func TestAccessBatchEmptyAndTiny(t *testing.T) {
	vm := diffVM(t, pebs.Config{}, 0)
	if got := vm.AccessBatch(nil); got != 0 {
		t.Fatalf("empty batch cost %d", got)
	}
	if s := vm.Stats(); s.Accesses != 0 {
		t.Fatalf("empty batch counted accesses: %+v", s)
	}
	ref := diffVM(t, pebs.Config{}, 0)
	gva := vm.Proc.Mmap(4 * mem.PageSize)
	gvaRef := ref.Proc.Mmap(4 * mem.PageSize)
	if gva != gvaRef {
		t.Fatalf("twin mmap diverged: %#x vs %#x", gva, gvaRef)
	}
	got := vm.AccessBatch([]workload.Access{{GVA: gva, Write: true}})
	want := ref.Access(gvaRef, true)
	if got != want {
		t.Fatalf("single-access batch cost %d, scalar %d", got, want)
	}
	if vm.Stats() != ref.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", vm.Stats(), ref.Stats())
	}
}
