// Package workload provides the synthetic memory-access generators driving
// every experiment. Each generator reproduces the access-distribution
// *class* of one of the paper's applications (§5.3): uniform (btree,
// bwaves), static hotspot (XSBench, LibLinear), dynamic shifting hotspot
// (Silo) and power-law skew with scattered hot/cold interleaving (graph500,
// PageRank), plus the GUPS hotset micro-benchmark (§5.2).
//
// Every workload begins with an initialization phase that sweeps its
// regions sequentially (the way real applications populate their data
// structures). Under first-touch allocation this fills FMEM in address
// order, so the post-init hot set starts mostly in SMEM and tiered memory
// management has real work to do — matching the ramp-up phase visible in
// the paper's Figure 8.
package workload

import (
	"fmt"

	"demeter/internal/mem"
)

// Access is one memory reference.
type Access struct {
	GVA   uint64
	Write bool
}

// AddressSpace is what a workload needs from the guest process to lay out
// its regions. guestos.Process implements it.
type AddressSpace interface {
	// Brk extends the heap by bytes, returning the region start.
	Brk(bytes uint64) uint64
	// Mmap reserves an anonymous region, returning its start.
	Mmap(bytes uint64) uint64
}

// Workload generates a finite access stream.
type Workload interface {
	// Name identifies the workload in harness output.
	Name() string
	// Setup reserves address-space regions. Must be called once before
	// Fill.
	Setup(as AddressSpace)
	// Fill writes up to len(dst) accesses and returns how many were
	// produced and whether the workload is complete. Workloads emit
	// multi-access groups (transactions, lookups) atomically: when the
	// remaining buffer cannot hold a whole group, Fill returns early
	// with (n, false) — possibly (0, false) for a buffer smaller than
	// one group — and resumes from the same group on the next call.
	// Callers must size buffers to at least one group (see
	// MaxTxnAccesses) or Fill can never make progress.
	Fill(dst []Access) (n int, done bool)
	// TotalOps returns the total number of main-phase operations
	// (excluding the init sweep), for throughput normalization.
	TotalOps() uint64
	// InitOps returns the number of init-sweep accesses emitted before
	// the main phase; executors exclude them from transaction latency
	// accounting.
	InitOps() uint64
}

// Transactional is implemented by workloads with a transaction structure,
// letting the executor aggregate per-transaction latency (Figure 12).
type Transactional interface {
	// TxnAccesses is the number of consecutive accesses forming one
	// transaction.
	TxnAccesses() int
}

// MaxTxnAccesses returns the largest transaction footprint any canonical
// workload construction produces: Silo touches 8 records per transaction
// and a scan-heavy YCSB widens every operation to 1 + ycsbScanLength. The
// engine's slice buffer (engine.DefaultBatchSize) is tested against this
// so a batch always holds at least one whole transaction.
func MaxTxnAccesses() int {
	// TxnAccesses depends only on the mix, never on table size, so bare
	// values suffice.
	max := (&Silo{}).TxnAccesses()
	for _, mix := range []YCSBMix{YCSBA, YCSBB, YCSBC, YCSBE} {
		y := YCSB{Mix: mix}
		if t := y.TxnAccesses(); t > max {
			max = t
		}
	}
	return max
}

// Must unwraps a constructor result, panicking on error. It is for
// harness and test wiring whose sizes are compile-time constants;
// config-driven paths (the serve daemon) propagate the error instead.
func Must[W Workload](wl W, err error) W {
	if err != nil {
		panic(fmt.Sprintf("workload: %v", err))
	}
	return wl
}

// pageGVA converts a region start and page index to a byte address.
func pageGVA(region, page uint64) uint64 { return region + page*mem.PageSize }

// initSweep emits a sequential first-touch pass over a region. It is
// embedded in every workload's Fill before the main phase.
type initSweep struct {
	regions []struct {
		start uint64
		pages uint64
	}
	ri, pi uint64
	done   bool
}

func (s *initSweep) add(start, pages uint64) {
	s.regions = append(s.regions, struct {
		start uint64
		pages uint64
	}{start, pages})
}

// next returns the next init access, or ok=false when the sweep finished.
func (s *initSweep) next() (Access, bool) {
	for int(s.ri) < len(s.regions) {
		r := s.regions[s.ri]
		if s.pi < r.pages {
			a := Access{GVA: pageGVA(r.start, s.pi), Write: true}
			s.pi++
			return a, true
		}
		s.ri++
		s.pi = 0
	}
	s.done = true
	return Access{}, false
}

// totalPages sums the sweep's page count.
func (s *initSweep) totalPages() uint64 {
	var t uint64
	for _, r := range s.regions {
		t += r.pages
	}
	return t
}

// checkSetup panics when Setup was skipped — a harness bug worth failing
// loudly on.
func checkSetup(name string, ready bool) {
	if !ready {
		panic(fmt.Sprintf("workload %s: Fill before Setup", name))
	}
}

// fillLoop drives init-then-main generation shared by all workloads.
func fillLoop(sweep *initSweep, remaining *uint64, dst []Access, gen func() Access) (int, bool) {
	n := 0
	for n < len(dst) {
		if !sweep.done {
			if a, ok := sweep.next(); ok {
				dst[n] = a
				n++
				continue
			}
			continue // sweep just finished; fall through next iteration
		}
		if *remaining == 0 {
			return n, true
		}
		dst[n] = gen()
		*remaining--
		n++
	}
	return n, sweep.done && *remaining == 0
}
