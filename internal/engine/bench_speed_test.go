package engine

import (
	"runtime"
	"testing"

	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/obs"
	"demeter/internal/sim"
	"demeter/internal/workload"
)

// benchMachine builds the standard access-path benchmark cluster with the
// metrics registry attached: the zero-alloc contract is measured under
// the configuration experiments actually run.
func benchMachine() (*hypervisor.VM, *workload.GUPS) {
	eng := sim.NewEngine()
	m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(22000, 110000))
	m.AttachObs(obs.New(0))
	vm, _ := m.NewVM(hypervisor.VMConfig{VCPUs: 4, GuestFMEM: 22000, GuestSMEM: 110000, FMEMBacking: 0, SMEMBacking: 1})
	wl := workload.Must(workload.NewGUPS(114688, 1<<40, 1))
	wl.Setup(vm.Proc)
	return vm, wl
}

func BenchmarkAccessPath(b *testing.B) {
	vm, wl := benchMachine()
	buf := make([]workload.Access, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		n, _ := wl.Fill(buf)
		for i := 0; i < n && done < b.N; i++ {
			vm.Access(buf[i].GVA, buf[i].Write)
			done++
		}
	}
	_ = sim.Second
}

// BenchmarkAccessBatch is BenchmarkAccessPath's batched twin: the same
// cluster and access stream, consumed through vm.AccessBatch the way
// Executor.slice does. The ratio of the two is the per-access batching
// speedup; bench/ reports the same pair as hypervisor.access_ns and
// hypervisor.access_batch_ns.
func BenchmarkAccessBatch(b *testing.B) {
	vm, wl := benchMachine()
	buf := make([]workload.Access, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		n, _ := wl.Fill(buf)
		if n > b.N-done {
			n = b.N - done
		}
		vm.AccessBatch(buf[:n])
		done += n
	}
	_ = sim.Second
}

// TestAccessPathZeroAlloc pins the fast-path contract in the normal test
// run, not just under `go test -bench`: with the registry attached, a
// warm access loop must not allocate — through the scalar path and the
// batched path alike.
func TestAccessPathZeroAlloc(t *testing.T) {
	vm, wl := benchMachine()
	buf := make([]workload.Access, 4096)
	touch := func(rounds int) {
		for r := 0; r < rounds; r++ {
			n, _ := wl.Fill(buf)
			for i := 0; i < n; i++ {
				vm.Access(buf[i].GVA, buf[i].Write)
			}
		}
	}
	touchBatch := func(rounds int) {
		for r := 0; r < rounds; r++ {
			n, _ := wl.Fill(buf)
			vm.AccessBatch(buf[:n])
		}
	}
	touch(8)      // warm the footprint: fault in pages, size TLB structures
	touchBatch(8) // and the batch scratch state

	const rounds = 16
	check := func(name string, f func(int)) {
		allocs := testing.AllocsPerRun(10, func() { f(rounds) })
		perAccess := allocs / float64(rounds*len(buf))
		// Background spills (slow-path refill growth) get a sliver of
		// slack; the hit path itself must contribute nothing.
		if perAccess > 0.0001 {
			t.Fatalf("%s path allocates: %.6f allocs/access (%v allocs per %d-round run)",
				name, perAccess, allocs, rounds)
		}
	}
	check("scalar", touch)
	check("batched", touchBatch)
	runtime.KeepAlive(buf)
}
