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
	// LeafPages is the leaf level size; internal levels are derived with
	// btreeFanout.
	LeafPages uint64
	Ops       uint64
	Seed      uint64

	rng       *simrand.Source
	levels    []levelLayout // root first
	remaining uint64
	sweep     initSweep
	ready     bool
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
	return &BTree{LeafPages: leafPages, Ops: ops, Seed: seed}, nil
}

// Name implements Workload.
func (b *BTree) Name() string { return "btree" }

// TotalOps implements Workload.
func (b *BTree) TotalOps() uint64 { return b.Ops }

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
	b.remaining = b.Ops
	b.ready = true
}

// Fill implements Workload: each lookup touches one page per level along
// a uniformly random root-to-leaf path.
func (b *BTree) Fill(dst []Access) (int, bool) {
	checkSetup(b.Name(), b.ready)
	n := 0
	for n < len(dst) {
		if !b.sweep.done {
			if a, ok := b.sweep.next(); ok {
				dst[n] = a
				n++
			}
			continue
		}
		if b.remaining == 0 {
			return n, true
		}
		if n+len(b.levels) > len(dst) {
			return n, false // not enough room for a whole lookup
		}
		leaf := b.rng.Uint64n(b.levels[len(b.levels)-1].pages)
		// Walk from root: the page at level i is the leaf index divided
		// by fanout^(depth-i).
		div := uint64(1)
		for i := len(b.levels) - 1; i >= 0; i-- {
			lv := b.levels[i]
			page := (leaf / div) % lv.pages
			dst[n] = Access{GVA: pageGVA(lv.start, page)}
			n++
			div *= btreeFanout
		}
		b.remaining--
	}
	return n, b.sweep.done && b.remaining == 0
}

// XSBench models the Monte Carlo neutron-transport lookup kernel: a small,
// intensely hot energy-grid index plus a large cross-section table read at
// scattered offsets — the "static hotspot" class.
type XSBench struct {
	IndexPages uint64 // hot grid index
	DataPages  uint64 // nuclide cross-section data
	Ops        uint64
	Seed       uint64

	rng        *simrand.Source
	indexStart uint64
	dataStart  uint64
	remaining  uint64
	sweep      initSweep
	ready      bool
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
	return &XSBench{IndexPages: idx, DataPages: dataPages, Ops: ops, Seed: seed}, nil
}

// Name implements Workload.
func (x *XSBench) Name() string { return "xsbench" }

// TotalOps implements Workload.
func (x *XSBench) TotalOps() uint64 { return x.Ops }

// Setup implements Workload. Data is mapped before the index so the init
// sweep exhausts FMEM on cold data, leaving the hot index in SMEM.
func (x *XSBench) Setup(as AddressSpace) {
	x.rng = simrand.New(x.Seed ^ 0x78736265)
	x.dataStart = as.Mmap(x.DataPages * 4096)
	x.indexStart = as.Mmap(x.IndexPages * 4096)
	x.sweep.add(x.dataStart, x.DataPages)
	x.sweep.add(x.indexStart, x.IndexPages)
	x.remaining = x.Ops
	x.ready = true
}

// Fill implements Workload: one lookup = 2 binary-search touches in the
// hot index + 3 scattered cross-section reads.
func (x *XSBench) Fill(dst []Access) (int, bool) {
	checkSetup(x.Name(), x.ready)
	n := 0
	for n < len(dst) {
		if !x.sweep.done {
			if a, ok := x.sweep.next(); ok {
				dst[n] = a
				n++
			}
			continue
		}
		if x.remaining == 0 {
			return n, true
		}
		if n+5 > len(dst) {
			return n, false
		}
		for i := 0; i < 2; i++ {
			dst[n] = Access{GVA: pageGVA(x.indexStart, x.rng.Uint64n(x.IndexPages))}
			n++
		}
		for i := 0; i < 3; i++ {
			dst[n] = Access{GVA: pageGVA(x.dataStart, x.rng.Uint64n(x.DataPages))}
			n++
		}
		x.remaining--
	}
	return n, x.sweep.done && x.remaining == 0
}

// HotRegion returns the index region for accuracy checks.
func (x *XSBench) HotRegion() (start uint64, pages uint64) { return x.indexStart, x.IndexPages }

// LibLinear models the linear-classification trainer on kdda: every
// iteration streams the feature matrix sequentially while hammering a
// small, contiguous model-weight vector — Figure 4's "hottest virtual
// address region concentrated in small contiguous ranges".
type LibLinear struct {
	FeaturePages uint64
	WeightPages  uint64
	Ops          uint64
	Seed         uint64

	rng          *simrand.Source
	featureStart uint64
	weightStart  uint64
	cursor       uint64
	remaining    uint64
	sweep        initSweep
	gen          func() Access
	ready        bool
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
	return &LibLinear{FeaturePages: featurePages, WeightPages: w, Ops: ops, Seed: seed}, nil
}

// Name implements Workload.
func (l *LibLinear) Name() string { return "liblinear" }

// TotalOps implements Workload.
func (l *LibLinear) TotalOps() uint64 { return l.Ops }

// Setup implements Workload.
func (l *LibLinear) Setup(as AddressSpace) {
	l.rng = simrand.New(l.Seed ^ 0x6c6c696e)
	l.featureStart = as.Mmap(l.FeaturePages * 4096)
	l.weightStart = as.Brk(l.WeightPages * 4096)
	l.sweep.add(l.featureStart, l.FeaturePages)
	l.sweep.add(l.weightStart, l.WeightPages)
	l.remaining = l.Ops
	l.gen = func() Access {
		if l.cursor%2 == 0 {
			a := Access{GVA: pageGVA(l.featureStart, (l.cursor/2)%l.FeaturePages)}
			l.cursor++
			return a
		}
		l.cursor++
		return Access{GVA: pageGVA(l.weightStart, l.rng.Uint64n(l.WeightPages)), Write: true}
	}
	l.ready = true
}

// Fill implements Workload: alternate one sequential feature read with one
// random weight update.
func (l *LibLinear) Fill(dst []Access) (int, bool) {
	checkSetup(l.Name(), l.ready)
	return fillLoop(&l.sweep, &l.remaining, dst, l.gen)
}

// HotRegion returns the weight vector region.
func (l *LibLinear) HotRegion() (start uint64, pages uint64) { return l.weightStart, l.WeightPages }

// Bwaves models the SPEC CPU 2017 blast-wave solver: repeated stencil
// sweeps over several large arrays — the uniform streaming class with
// only mild per-array bias.
type Bwaves struct {
	ArrayPages uint64 // per array
	Ops        uint64
	Seed       uint64

	starts    []uint64
	cursor    uint64
	remaining uint64
	sweep     initSweep
	gen       func() Access
	ready     bool
}

// bwavesArrays is the number of solver grids; the last one is written.
const bwavesArrays = 3

// NewBwaves sizes the solver grids.
func NewBwaves(arrayPages, ops, seed uint64) (*Bwaves, error) {
	if arrayPages < 16 {
		return nil, fmt.Errorf("bwaves: arrays of %d pages too small (want >= 16)", arrayPages)
	}
	return &Bwaves{ArrayPages: arrayPages, Ops: ops, Seed: seed}, nil
}

// Name implements Workload.
func (w *Bwaves) Name() string { return "bwaves" }

// TotalOps implements Workload.
func (w *Bwaves) TotalOps() uint64 { return w.Ops }

// Setup implements Workload.
func (w *Bwaves) Setup(as AddressSpace) {
	for i := 0; i < bwavesArrays; i++ {
		s := as.Mmap(w.ArrayPages * 4096)
		w.starts = append(w.starts, s)
		w.sweep.add(s, w.ArrayPages)
	}
	w.remaining = w.Ops
	w.gen = func() Access {
		arr := int(w.cursor) % bwavesArrays
		page := (w.cursor / bwavesArrays) % w.ArrayPages
		w.cursor++
		return Access{GVA: pageGVA(w.starts[arr], page), Write: arr == bwavesArrays-1}
	}
	w.ready = true
}

// Fill implements Workload: round-robin sequential sweeps; the last array
// is written (the solver output).
func (w *Bwaves) Fill(dst []Access) (int, bool) {
	checkSetup(w.Name(), w.ready)
	return fillLoop(&w.sweep, &w.remaining, dst, w.gen)
}

// Silo models the in-memory OLTP engine under a YCSB-like mix: strong
// temporal locality inside a hot key window that drifts through the key
// space — the "dynamic shifting hotspot" class. It implements
// Transactional for latency-percentile measurement (Figure 12).
type Silo struct {
	TablePages uint64
	HotPages   uint64 // hot window size
	ShiftEvery uint64 // transactions between window moves
	Ops        uint64 // transactions
	Seed       uint64

	rng        *simrand.Source
	tableStart uint64
	hotPos     uint64
	txns       uint64
	remaining  uint64
	sweep      initSweep
	ready      bool
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
		TablePages: tablePages,
		HotPages:   hot,
		ShiftEvery: ops / 20,
		Ops:        ops,
		Seed:       seed,
	}, nil
}

// Name implements Workload.
func (s *Silo) Name() string { return "silo" }

// TotalOps implements Workload.
func (s *Silo) TotalOps() uint64 { return s.Ops }

// TxnAccesses implements Transactional: 8 record touches per transaction.
func (s *Silo) TxnAccesses() int { return 8 }

// Setup implements Workload.
func (s *Silo) Setup(as AddressSpace) {
	s.rng = simrand.New(s.Seed ^ 0x73696c6f)
	s.tableStart = as.Mmap(s.TablePages * 4096)
	s.sweep.add(s.tableStart, s.TablePages)
	s.hotPos = s.TablePages / 2
	if s.ShiftEvery == 0 {
		s.ShiftEvery = 1
	}
	s.remaining = s.Ops
	s.ready = true
}

// Fill implements Workload: per transaction, 8 touches — 80% in the hot
// window, 20% uniform; 25% writes (YCSB-B-flavored update mix).
func (s *Silo) Fill(dst []Access) (int, bool) {
	checkSetup(s.Name(), s.ready)
	n := 0
	for n < len(dst) {
		if !s.sweep.done {
			if a, ok := s.sweep.next(); ok {
				dst[n] = a
				n++
			}
			continue
		}
		if s.remaining == 0 {
			return n, true
		}
		if n+s.TxnAccesses() > len(dst) {
			return n, false
		}
		for i := 0; i < s.TxnAccesses(); i++ {
			var page uint64
			if s.rng.Float64() < 0.8 {
				page = (s.hotPos + s.rng.Uint64n(s.HotPages)) % s.TablePages
			} else {
				page = s.rng.Uint64n(s.TablePages)
			}
			dst[n] = Access{GVA: pageGVA(s.tableStart, page), Write: s.rng.Bool(0.25)}
			n++
		}
		s.remaining--
		s.txns++
		if s.txns%s.ShiftEvery == 0 {
			s.hotPos = (s.hotPos + s.HotPages/4 + 1) % s.TablePages
		}
	}
	return n, s.sweep.done && s.remaining == 0
}

// Graph500 models BFS over a power-law graph: vertex popularity is
// Zipf-distributed but vertex ids are hash-scattered across the address
// space, producing the fine-grained hot/cold interleaving that challenges
// range-based classification (§5.3 "Skewed Access Pattern").
type Graph500 struct {
	VertexPages uint64
	EdgePages   uint64
	Ops         uint64
	Seed        uint64

	rng         *simrand.Source
	zipf        *simrand.Zipf
	vertexStart uint64
	edgeStart   uint64
	remaining   uint64
	sweep       initSweep
	ready       bool
}

// NewGraph500 sizes the graph; edges take 4x the vertex space.
func NewGraph500(vertexPages, ops, seed uint64) (*Graph500, error) {
	if vertexPages < 64 {
		return nil, fmt.Errorf("graph500: vertex region of %d pages too small (want >= 64)", vertexPages)
	}
	return &Graph500{VertexPages: vertexPages, EdgePages: vertexPages * 4, Ops: ops, Seed: seed}, nil
}

// Name implements Workload.
func (g *Graph500) Name() string { return "graph500" }

// TotalOps implements Workload.
func (g *Graph500) TotalOps() uint64 { return g.Ops }

// Setup implements Workload.
func (g *Graph500) Setup(as AddressSpace) {
	g.rng = simrand.New(g.Seed ^ 0x67353030)
	g.zipf = simrand.NewZipf(g.rng.Derive(1), 1.3, g.VertexPages)
	g.vertexStart = as.Mmap(g.VertexPages * 4096)
	g.edgeStart = as.Mmap(g.EdgePages * 4096)
	g.sweep.add(g.vertexStart, g.VertexPages)
	g.sweep.add(g.edgeStart, g.EdgePages)
	g.remaining = g.Ops
	g.ready = true
}

// scatter spreads a Zipf rank across the page range multiplicatively so
// popular pages interleave with unpopular ones.
func scatter(rank, pages uint64) uint64 {
	return ((rank + 1) * 0x9E3779B1) % pages
}

// Fill implements Workload: visit a popularity-weighted vertex, then two
// of its edge list pages, then write the frontier entry.
func (g *Graph500) Fill(dst []Access) (int, bool) {
	checkSetup(g.Name(), g.ready)
	n := 0
	for n < len(dst) {
		if !g.sweep.done {
			if a, ok := g.sweep.next(); ok {
				dst[n] = a
				n++
			}
			continue
		}
		if g.remaining == 0 {
			return n, true
		}
		if n+4 > len(dst) {
			return n, false
		}
		v := scatter(g.zipf.Next(), g.VertexPages)
		dst[n] = Access{GVA: pageGVA(g.vertexStart, v)}
		n++
		for i := 0; i < 2; i++ {
			dst[n] = Access{GVA: pageGVA(g.edgeStart, g.rng.Uint64n(g.EdgePages))}
			n++
		}
		dst[n] = Access{GVA: pageGVA(g.vertexStart, v), Write: true}
		n++
		g.remaining--
	}
	return n, g.sweep.done && g.remaining == 0
}

// PageRank models rank iteration on the Twitter graph: a sequential write
// pass over destination ranks combined with Zipf-scattered reads of
// source ranks — streaming plus power-law skew.
type PageRank struct {
	RankPages uint64
	Ops       uint64
	Seed      uint64

	rng       *simrand.Source
	zipf      *simrand.Zipf
	rankStart uint64
	cursor    uint64
	remaining uint64
	sweep     initSweep
	ready     bool
}

// NewPageRank sizes the rank vectors.
func NewPageRank(rankPages, ops, seed uint64) (*PageRank, error) {
	if rankPages < 64 {
		return nil, fmt.Errorf("pagerank: rank region of %d pages too small (want >= 64)", rankPages)
	}
	return &PageRank{RankPages: rankPages, Ops: ops, Seed: seed}, nil
}

// Name implements Workload.
func (p *PageRank) Name() string { return "pagerank" }

// TotalOps implements Workload.
func (p *PageRank) TotalOps() uint64 { return p.Ops }

// Setup implements Workload.
func (p *PageRank) Setup(as AddressSpace) {
	p.rng = simrand.New(p.Seed ^ 0x70616765)
	p.zipf = simrand.NewZipf(p.rng.Derive(1), 1.3, p.RankPages)
	p.rankStart = as.Mmap(p.RankPages * 4096)
	p.sweep.add(p.rankStart, p.RankPages)
	p.remaining = p.Ops
	p.ready = true
}

// Fill implements Workload: per op, read two scattered in-neighbor ranks
// and write the sequentially advancing destination rank.
func (p *PageRank) Fill(dst []Access) (int, bool) {
	checkSetup(p.Name(), p.ready)
	n := 0
	for n < len(dst) {
		if !p.sweep.done {
			if a, ok := p.sweep.next(); ok {
				dst[n] = a
				n++
			}
			continue
		}
		if p.remaining == 0 {
			return n, true
		}
		if n+3 > len(dst) {
			return n, false
		}
		for i := 0; i < 2; i++ {
			dst[n] = Access{GVA: pageGVA(p.rankStart, scatter(p.zipf.Next(), p.RankPages))}
			n++
		}
		dst[n] = Access{GVA: pageGVA(p.rankStart, p.cursor%p.RankPages), Write: true}
		p.cursor++
		n++
		p.remaining--
	}
	return n, p.sweep.done && p.remaining == 0
}

// InitOps implements Workload for each generator: the init sweep length.
func (b *BTree) InitOps() uint64     { return b.sweep.totalPages() }
func (x *XSBench) InitOps() uint64   { return x.sweep.totalPages() }
func (l *LibLinear) InitOps() uint64 { return l.sweep.totalPages() }
func (w *Bwaves) InitOps() uint64    { return w.sweep.totalPages() }
func (s *Silo) InitOps() uint64      { return s.sweep.totalPages() }
func (g *Graph500) InitOps() uint64  { return g.sweep.totalPages() }
func (p *PageRank) InitOps() uint64  { return p.sweep.totalPages() }
