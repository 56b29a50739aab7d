package workload

import (
	"fmt"

	"demeter/internal/simrand"
)

// BTree models the btree index benchmark: lookups descend a B-tree whose
// upper levels ("traversal hubs") are small and intensely shared while the
// leaf level is large and uniformly accessed — the paper's "relatively
// uniform access distribution" class with subtle hotspots.
type BTree struct {
	stream
	// LeafPages is the leaf level size; internal levels are derived with
	// btreeFanout.
	LeafPages uint64

	rng    *simrand.Source
	levels []levelLayout // root first
}

// btreeFanout is the number of children per internal node.
const btreeFanout = 64

type levelLayout struct {
	start uint64 // byte address
	pages uint64
}

// NewBTree returns a btree workload of the given leaf size.
func NewBTree(leafPages, ops, seed uint64) (*BTree, error) {
	if leafPages < 2 {
		return nil, fmt.Errorf("btree: leaf level of %d pages too small (want >= 2)", leafPages)
	}
	return &BTree{stream: stream{name: "btree", Ops: ops, Seed: seed}, LeafPages: leafPages}, nil
}

// Setup implements Workload: levels allocated on the heap, leaves last,
// mirroring bulk-loaded index construction.
func (b *BTree) Setup(as AddressSpace) {
	b.rng = simrand.New(b.Seed ^ 0x6274726565)
	var sizes []uint64
	for n := b.LeafPages; ; n = (n + btreeFanout - 1) / btreeFanout {
		sizes = append(sizes, n)
		if n == 1 {
			break
		}
	}
	// sizes is leaf-first; allocate root-first so the hot hubs sit at
	// low heap addresses in a compact range.
	for i := len(sizes) - 1; i >= 0; i-- {
		start := as.Brk(sizes[i] * 4096)
		b.levels = append(b.levels, levelLayout{start: start, pages: sizes[i]})
		b.sweep.add(start, sizes[i])
	}
	// One lookup touches one page per level along a uniformly random
	// root-to-leaf path, leaf first: the page at level i is the leaf index
	// divided by fanout^(depth-i).
	depth := len(b.levels)
	b.start(depth, func(dst []Access) {
		leaf := b.rng.Uint64n(b.levels[depth-1].pages)
		div := uint64(1)
		for i := depth - 1; i >= 0; i-- {
			lv := b.levels[i]
			dst[depth-1-i] = Access{GVA: pageGVA(lv.start, (leaf/div)%lv.pages)}
			div *= btreeFanout
		}
	})
}

// XSBench models the Monte Carlo neutron-transport lookup kernel: a small,
// intensely hot energy-grid index plus a large cross-section table read at
// scattered offsets — the "static hotspot" class.
type XSBench struct {
	stream
	IndexPages uint64 // hot grid index
	DataPages  uint64 // nuclide cross-section data

	rng        *simrand.Source
	indexStart uint64
	dataStart  uint64
}

// NewXSBench sizes the workload; the index is the hot set (~5% of data).
func NewXSBench(dataPages, ops, seed uint64) (*XSBench, error) {
	if dataPages < 64 {
		return nil, fmt.Errorf("xsbench: data region of %d pages too small (want >= 64)", dataPages)
	}
	idx := dataPages / 20
	if idx == 0 {
		idx = 1
	}
	return &XSBench{stream: stream{name: "xsbench", Ops: ops, Seed: seed}, IndexPages: idx, DataPages: dataPages}, nil
}

// Setup implements Workload. Data is mapped before the index so the init
// sweep exhausts FMEM on cold data, leaving the hot index in SMEM. One
// lookup = 2 binary-search touches in the hot index + 3 scattered
// cross-section reads.
func (x *XSBench) Setup(as AddressSpace) {
	x.rng = simrand.New(x.Seed ^ 0x78736265)
	x.dataStart = as.Mmap(x.DataPages * 4096)
	x.indexStart = as.Mmap(x.IndexPages * 4096)
	x.sweep.add(x.dataStart, x.DataPages)
	x.sweep.add(x.indexStart, x.IndexPages)
	x.start(5, func(dst []Access) {
		for i := 0; i < 2; i++ {
			dst[i] = Access{GVA: pageGVA(x.indexStart, x.rng.Uint64n(x.IndexPages))}
		}
		for i := 2; i < 5; i++ {
			dst[i] = Access{GVA: pageGVA(x.dataStart, x.rng.Uint64n(x.DataPages))}
		}
	})
}

// HotRegion returns the index region for accuracy checks.
func (x *XSBench) HotRegion() (start uint64, pages uint64) { return x.indexStart, x.IndexPages }

// LibLinear models the linear-classification trainer on kdda: every
// iteration streams the feature matrix sequentially while hammering a
// small, contiguous model-weight vector — Figure 4's "hottest virtual
// address region concentrated in small contiguous ranges".
type LibLinear struct {
	stream
	FeaturePages uint64
	WeightPages  uint64

	rng          *simrand.Source
	featureStart uint64
	weightStart  uint64
	cursor       uint64
}

// NewLibLinear sizes the workload; weights are ~2% of features.
func NewLibLinear(featurePages, ops, seed uint64) (*LibLinear, error) {
	if featurePages < 64 {
		return nil, fmt.Errorf("liblinear: feature region of %d pages too small (want >= 64)", featurePages)
	}
	w := featurePages / 50
	if w == 0 {
		w = 1
	}
	return &LibLinear{stream: stream{name: "liblinear", Ops: ops, Seed: seed}, FeaturePages: featurePages, WeightPages: w}, nil
}

// Setup implements Workload. Operations alternate one sequential feature
// read with one random weight update.
func (l *LibLinear) Setup(as AddressSpace) {
	l.rng = simrand.New(l.Seed ^ 0x6c6c696e)
	l.featureStart = as.Mmap(l.FeaturePages * 4096)
	l.weightStart = as.Brk(l.WeightPages * 4096)
	l.sweep.add(l.featureStart, l.FeaturePages)
	l.sweep.add(l.weightStart, l.WeightPages)
	l.start(1, func(dst []Access) {
		if l.cursor%2 == 0 {
			dst[0] = Access{GVA: pageGVA(l.featureStart, (l.cursor/2)%l.FeaturePages)}
		} else {
			dst[0] = Access{GVA: pageGVA(l.weightStart, l.rng.Uint64n(l.WeightPages)), Write: true}
		}
		l.cursor++
	})
}

// HotRegion returns the weight vector region.
func (l *LibLinear) HotRegion() (start uint64, pages uint64) { return l.weightStart, l.WeightPages }

// Bwaves models the SPEC CPU 2017 blast-wave solver: repeated stencil
// sweeps over several large arrays — the uniform streaming class with
// only mild per-array bias.
type Bwaves struct {
	stream
	ArrayPages uint64 // per array

	starts []uint64
	cursor uint64
}

// bwavesArrays is the number of solver grids; the last one is written.
const bwavesArrays = 3

// NewBwaves sizes the solver grids.
func NewBwaves(arrayPages, ops, seed uint64) (*Bwaves, error) {
	if arrayPages < 16 {
		return nil, fmt.Errorf("bwaves: arrays of %d pages too small (want >= 16)", arrayPages)
	}
	return &Bwaves{stream: stream{name: "bwaves", Ops: ops, Seed: seed}, ArrayPages: arrayPages}, nil
}

// Setup implements Workload. Operations are round-robin sequential sweeps;
// the last array is written (the solver output).
func (w *Bwaves) Setup(as AddressSpace) {
	for i := 0; i < bwavesArrays; i++ {
		s := as.Mmap(w.ArrayPages * 4096)
		w.starts = append(w.starts, s)
		w.sweep.add(s, w.ArrayPages)
	}
	w.start(1, func(dst []Access) {
		arr := int(w.cursor) % bwavesArrays
		page := (w.cursor / bwavesArrays) % w.ArrayPages
		w.cursor++
		dst[0] = Access{GVA: pageGVA(w.starts[arr], page), Write: arr == bwavesArrays-1}
	})
}

// Silo models the in-memory OLTP engine under a YCSB-like mix: strong
// temporal locality inside a hot key window that drifts through the key
// space — the "dynamic shifting hotspot" class. It implements
// Transactional for latency-percentile measurement (Figure 12).
type Silo struct {
	stream
	TablePages uint64
	HotPages   uint64 // hot window size
	ShiftEvery uint64 // transactions between window moves

	rng        *simrand.Source
	tableStart uint64
	hotPos     uint64
	txns       uint64
}

// NewSilo sizes the OLTP table; the hot window is ~8% of it and drifts a
// quarter-window at a time.
func NewSilo(tablePages, ops, seed uint64) (*Silo, error) {
	if tablePages < 128 {
		return nil, fmt.Errorf("silo: table of %d pages too small (want >= 128)", tablePages)
	}
	hot := tablePages / 12
	if hot == 0 {
		hot = 1
	}
	return &Silo{
		stream:     stream{name: "silo", Ops: ops, Seed: seed},
		TablePages: tablePages,
		HotPages:   hot,
		ShiftEvery: ops / 20,
	}, nil
}

// TxnAccesses implements Transactional: 8 record touches per transaction.
func (s *Silo) TxnAccesses() int { return 8 }

// Setup implements Workload. Per transaction, 8 touches — 80% in the hot
// window, 20% uniform; 25% writes (YCSB-B-flavored update mix).
func (s *Silo) Setup(as AddressSpace) {
	s.rng = simrand.New(s.Seed ^ 0x73696c6f)
	s.tableStart = as.Mmap(s.TablePages * 4096)
	s.sweep.add(s.tableStart, s.TablePages)
	s.hotPos = s.TablePages / 2
	if s.ShiftEvery == 0 {
		s.ShiftEvery = 1
	}
	s.start(s.TxnAccesses(), func(dst []Access) {
		for i := range dst {
			var page uint64
			if s.rng.Float64() < 0.8 {
				page = (s.hotPos + s.rng.Uint64n(s.HotPages)) % s.TablePages
			} else {
				page = s.rng.Uint64n(s.TablePages)
			}
			dst[i] = Access{GVA: pageGVA(s.tableStart, page), Write: s.rng.Bool(0.25)}
		}
		s.txns++
		if s.txns%s.ShiftEvery == 0 {
			s.hotPos = (s.hotPos + s.HotPages/4 + 1) % s.TablePages
		}
	})
}

// Graph500 models BFS over a power-law graph: vertex popularity is
// Zipf-distributed but vertex ids are hash-scattered across the address
// space, producing the fine-grained hot/cold interleaving that challenges
// range-based classification (§5.3 "Skewed Access Pattern").
type Graph500 struct {
	stream
	VertexPages uint64
	EdgePages   uint64

	rng         *simrand.Source
	zipf        *simrand.Zipf
	vertexStart uint64
	edgeStart   uint64
}

// NewGraph500 sizes the graph; edges take 4x the vertex space.
func NewGraph500(vertexPages, ops, seed uint64) (*Graph500, error) {
	if vertexPages < 64 {
		return nil, fmt.Errorf("graph500: vertex region of %d pages too small (want >= 64)", vertexPages)
	}
	return &Graph500{stream: stream{name: "graph500", Ops: ops, Seed: seed}, VertexPages: vertexPages, EdgePages: vertexPages * 4}, nil
}

// Setup implements Workload. One op visits a popularity-weighted vertex,
// then two of its edge list pages, then writes the frontier entry.
func (g *Graph500) Setup(as AddressSpace) {
	g.rng = simrand.New(g.Seed ^ 0x67353030)
	g.zipf = simrand.NewZipf(g.rng.Derive(1), 1.3, g.VertexPages)
	g.vertexStart = as.Mmap(g.VertexPages * 4096)
	g.edgeStart = as.Mmap(g.EdgePages * 4096)
	g.sweep.add(g.vertexStart, g.VertexPages)
	g.sweep.add(g.edgeStart, g.EdgePages)
	g.start(4, func(dst []Access) {
		v := pageGVA(g.vertexStart, scatter(g.zipf.Next(), g.VertexPages))
		dst[0] = Access{GVA: v}
		for i := 1; i <= 2; i++ {
			dst[i] = Access{GVA: pageGVA(g.edgeStart, g.rng.Uint64n(g.EdgePages))}
		}
		dst[3] = Access{GVA: v, Write: true}
	})
}

// scatter spreads a Zipf rank across the page range multiplicatively so
// popular pages interleave with unpopular ones.
func scatter(rank, pages uint64) uint64 {
	return ((rank + 1) * 0x9E3779B1) % pages
}

// PageRank models rank iteration on the Twitter graph: a sequential write
// pass over destination ranks combined with Zipf-scattered reads of
// source ranks — streaming plus power-law skew.
type PageRank struct {
	stream
	RankPages uint64

	rng       *simrand.Source
	zipf      *simrand.Zipf
	rankStart uint64
	cursor    uint64
}

// NewPageRank sizes the rank vectors.
func NewPageRank(rankPages, ops, seed uint64) (*PageRank, error) {
	if rankPages < 64 {
		return nil, fmt.Errorf("pagerank: rank region of %d pages too small (want >= 64)", rankPages)
	}
	return &PageRank{stream: stream{name: "pagerank", Ops: ops, Seed: seed}, RankPages: rankPages}, nil
}

// Setup implements Workload. Per op, read two scattered in-neighbor ranks
// and write the sequentially advancing destination rank.
func (p *PageRank) Setup(as AddressSpace) {
	p.rng = simrand.New(p.Seed ^ 0x70616765)
	p.zipf = simrand.NewZipf(p.rng.Derive(1), 1.3, p.RankPages)
	p.rankStart = as.Mmap(p.RankPages * 4096)
	p.sweep.add(p.rankStart, p.RankPages)
	p.start(3, func(dst []Access) {
		for i := 0; i < 2; i++ {
			dst[i] = Access{GVA: pageGVA(p.rankStart, scatter(p.zipf.Next(), p.RankPages))}
		}
		dst[2] = Access{GVA: pageGVA(p.rankStart, p.cursor%p.RankPages), Write: true}
		p.cursor++
	})
}
