package workload

import (
	"fmt"

	"demeter/internal/simrand"
)

// YCSBMix is the operation mix of a YCSB core workload.
type YCSBMix struct {
	ReadFrac   float64
	UpdateFrac float64
	ScanFrac   float64 // short range scans (workload E flavor)
}

// Standard YCSB core mixes.
var (
	YCSBA = YCSBMix{ReadFrac: 0.5, UpdateFrac: 0.5}
	YCSBB = YCSBMix{ReadFrac: 0.95, UpdateFrac: 0.05}
	YCSBC = YCSBMix{ReadFrac: 1.0}
	YCSBE = YCSBMix{ReadFrac: 0.0, UpdateFrac: 0.05, ScanFrac: 0.95}
)

// YCSB is the Yahoo! Cloud Serving Benchmark core driver over a key-value
// store: zipfian key popularity with hashed key placement (popular keys
// scatter across the table, like real hash-partitioned stores), an index
// touch per operation, and the standard read/update/scan mixes. It
// implements Transactional so executors can collect per-operation latency.
type YCSB struct {
	stream
	// RecordPages is the table size; IndexPages the (hot) index.
	RecordPages, IndexPages uint64
	// Mix is the operation mix.
	Mix YCSBMix

	rng         *simrand.Source
	zipf        *simrand.Zipf
	indexStart  uint64
	recordStart uint64
}

const (
	// ycsbSkew is the theta-like skew: the Zipf exponent over key ranks
	// (s > 1).
	ycsbSkew = 1.1
	// ycsbScanLength is the pages touched by one scan operation. It
	// bounds the widest canonical transaction, so MaxTxnAccesses depends
	// on it.
	ycsbScanLength = 8
)

// NewYCSB builds a YCSB driver with the given mix. Invalid sizings and
// mixes are configuration errors, reported rather than panicking, so
// config-driven frontends (the serve daemon) can surface them.
func NewYCSB(recordPages, ops, seed uint64, mix YCSBMix) (*YCSB, error) {
	if recordPages < 64 {
		return nil, fmt.Errorf("ycsb: table of %d pages too small (want >= 64)", recordPages)
	}
	total := mix.ReadFrac + mix.UpdateFrac + mix.ScanFrac
	if total < 0.999 || total > 1.001 {
		return nil, fmt.Errorf("ycsb: mix fractions sum to %v, want 1", total)
	}
	if mix.ReadFrac < 0 || mix.UpdateFrac < 0 || mix.ScanFrac < 0 {
		return nil, fmt.Errorf("ycsb: negative mix fraction in %+v", mix)
	}
	idx := recordPages / 32
	if idx == 0 {
		idx = 1
	}
	return &YCSB{
		stream:      stream{name: "ycsb", Ops: ops, Seed: seed},
		RecordPages: recordPages,
		IndexPages:  idx,
		Mix:         mix,
	}, nil
}

// TxnAccesses implements Transactional: one index touch plus the record
// touches. Scan-heavy mixes widen every operation to the scan length so
// latency accounting stays uniform (non-scan operations spend the extra
// touches walking the index, like a tree traversal).
func (y *YCSB) TxnAccesses() int {
	if y.Mix.ScanFrac > 0 {
		return 1 + ycsbScanLength
	}
	return 2
}

// Setup implements Workload.
func (y *YCSB) Setup(as AddressSpace) {
	y.rng = simrand.New(y.Seed ^ 0x79637362)
	y.zipf = simrand.NewZipf(y.rng.Derive(1), ycsbSkew, y.RecordPages)
	y.recordStart = as.Mmap(y.RecordPages * 4096)
	y.indexStart = as.Mmap(y.IndexPages * 4096)
	y.sweep.add(y.recordStart, y.RecordPages)
	y.sweep.add(y.indexStart, y.IndexPages)
	y.start(y.TxnAccesses(), y.op)
}

// key returns the record page for the next zipfian draw, hash-scattered.
func (y *YCSB) key() uint64 { return scatter(y.zipf.Next(), y.RecordPages) }

// index returns a uniformly drawn index page access.
func (y *YCSB) index() Access {
	return Access{GVA: pageGVA(y.indexStart, y.rng.Uint64n(y.IndexPages))}
}

// op emits one operation: an index touch, then a read or update of one
// record padded with index touches, or a scan of consecutive records.
func (y *YCSB) op(dst []Access) {
	dst[0] = y.index()
	rec := dst[1:]
	if r := y.rng.Float64(); r < y.Mix.ReadFrac+y.Mix.UpdateFrac {
		rec[0] = Access{GVA: pageGVA(y.recordStart, y.key()), Write: r >= y.Mix.ReadFrac}
		for i := 1; i < len(rec); i++ {
			rec[i] = y.index()
		}
		return
	}
	// Scan: a short run of consecutive record pages.
	start := y.key()
	for i := range rec {
		rec[i] = Access{GVA: pageGVA(y.recordStart, (start+uint64(i))%y.RecordPages)}
	}
}
