// Package mem models the host machine's physical memory: tier media
// (DRAM, PMEM, CXL.mem, remote-socket DRAM), NUMA topology, per-node frame
// allocators and the latency/bandwidth cost model used to charge every
// simulated access and migration copy.
//
// The default tier characteristics are the paper's Table 2, measured with
// Intel's Memory Latency Checker on the evaluation platform:
//
//	Access to         L2     L-DRAM    R-DRAM    L-PMEM
//	Latency (ns)      53.6   68.7      121.9     176.6
//	Bandwidth (MB/s)  -      88156.5   53533.8   21414.5
package mem

import (
	"fmt"
	"math/bits"

	"demeter/internal/fault"
	"demeter/internal/sim"
)

// FaultSlowTierSpike models transient slow-tier congestion (a busy Optane
// DIMM controller, a contended CXL link): a fired access pays an extra
// magnitude × loaded-latency on top of the normal charge. The access path
// in the hypervisor consults it for every non-DRAM access.
var FaultSlowTierSpike = fault.Register("mem.latency-spike", "mem",
	"transient slow-tier latency spike (device congestion)", 0.0005, 8)

// PageSize is the base page size in bytes. The simulator manages 4 KiB
// frames; the Demeter classifier's 2 MiB split granularity is expressed in
// these pages (512 per huge page).
const PageSize = 4096

// Frame is a host physical frame number (hPA >> 12). Frames are globally
// unique across NUMA nodes: each node owns a disjoint range.
type Frame uint64

// InvalidFrame marks "no frame".
const InvalidFrame = Frame(^uint64(0))

// TierKind identifies the medium backing a NUMA node.
type TierKind int

const (
	// TierDRAM is local-socket DRAM, the fast tier (FMEM).
	TierDRAM TierKind = iota
	// TierPMEM is Intel Optane persistent memory, the paper's primary
	// slow tier (SMEM).
	TierPMEM
	// TierCXL is CXL.mem, emulated in the paper via remote-socket DRAM
	// following Pond's methodology.
	TierCXL
	// TierRemoteDRAM is DRAM on the other socket, reached over UPI.
	TierRemoteDRAM
)

func (k TierKind) String() string {
	switch k {
	case TierDRAM:
		return "DRAM"
	case TierPMEM:
		return "PMEM"
	case TierCXL:
		return "CXL"
	case TierRemoteDRAM:
		return "R-DRAM"
	default:
		return fmt.Sprintf("TierKind(%d)", int(k))
	}
}

// TierSpec describes one memory medium's performance.
type TierSpec struct {
	Kind TierKind
	// LoadLatency is the idle (unloaded) load-to-use latency, what MLC's
	// idle pointer chase reports (Table 2).
	LoadLatency sim.Duration
	// LoadedLatency is the effective latency under multi-core steady
	// load — queueing at the media controller included. Optane PMEM
	// degrades far more under load than DRAM does, which is a large part
	// of why placement matters.
	LoadedLatency sim.Duration
	ReadBWMBps    float64 // streaming read bandwidth
	WriteBWMBps   float64 // streaming write bandwidth
}

// Table 2 media, used by the preset topologies.
var (
	SpecL2 = TierSpec{Kind: TierDRAM, LoadLatency: 54, LoadedLatency: 54} // cache hit reference (53.6ns)

	SpecLocalDRAM = TierSpec{Kind: TierDRAM, LoadLatency: 69, LoadedLatency: 110, ReadBWMBps: 88156.5, WriteBWMBps: 88156.5}

	SpecRemoteDRAM = TierSpec{Kind: TierRemoteDRAM, LoadLatency: 122, LoadedLatency: 250, ReadBWMBps: 53533.8, WriteBWMBps: 53533.8}

	// SpecCXL follows Pond's emulation: remote-socket DRAM latency.
	SpecCXL = TierSpec{Kind: TierCXL, LoadLatency: 122, LoadedLatency: 250, ReadBWMBps: 53533.8, WriteBWMBps: 53533.8}

	// SpecPMEM: Optane PMem 200. Idle read latency 176.6ns (Table 2);
	// under multi-threaded random access the on-DIMM controller queues
	// and effective latency approaches a microsecond (Yang et al., FAST
	// '20). Write bandwidth is far below reads on Optane.
	SpecPMEM = TierSpec{Kind: TierPMEM, LoadLatency: 177, LoadedLatency: 1100, ReadBWMBps: 21414.5, WriteBWMBps: 8000}
)

// CopyCost returns the simulated time to move size bytes from src to dst
// media: the transfer is limited by the slower of the source read and
// destination write streams.
func CopyCost(src, dst TierSpec, size int64) sim.Duration {
	bw := src.ReadBWMBps
	if dst.WriteBWMBps < bw {
		bw = dst.WriteBWMBps
	}
	if bw <= 0 {
		panic("mem: CopyCost on tier without bandwidth")
	}
	// MB/s == bytes/µs; ns = bytes * 1000 / MBps.
	return sim.Duration(float64(size) * 1000 / bw)
}

// Node is one host NUMA node: a contiguous frame range on a single medium
// with a LIFO free list. LIFO matches Linux's per-CPU page caches and is
// what scatters physical placement relative to virtual layout (Figure 4).
//
// The free list is filled lazily: it holds only frames freed since
// construction, and frames at or above the never-allocated mark next have
// never been handed out. Alloc pops the list first and takes base+next
// only when it is empty, which is exactly the order a list pushed full in
// reverse at construction would give: the first allocations come from the
// low end, which makes traces easier to read.
type Node struct {
	ID   int
	Spec TierSpec

	base    Frame
	nframes uint64
	next    uint64 // frames [base+next, base+nframes) were never allocated
	free    []Frame
}

// NewNode creates a node owning frames [base, base+nframes).
func NewNode(id int, spec TierSpec, base Frame, nframes uint64) *Node {
	return &Node{ID: id, Spec: spec, base: base, nframes: nframes}
}

// Frames returns the node's total frame count.
func (n *Node) Frames() uint64 { return n.nframes }

// FreeFrames returns the number of currently free frames.
func (n *Node) FreeFrames() uint64 { return uint64(len(n.free)) + n.nframes - n.next }

// UsedFrames returns allocated frame count.
func (n *Node) UsedFrames() uint64 { return n.nframes - n.FreeFrames() }

// Contains reports whether f belongs to this node.
func (n *Node) Contains(f Frame) bool {
	return f >= n.base && f < n.base+Frame(n.nframes)
}

// Alloc takes one frame from the node, or returns (InvalidFrame, false)
// when the node is exhausted.
func (n *Node) Alloc() (Frame, bool) {
	if last := len(n.free) - 1; last >= 0 {
		f := n.free[last]
		n.free = n.free[:last]
		return f, true
	}
	if n.next == n.nframes {
		return InvalidFrame, false
	}
	f := n.base + Frame(n.next)
	n.next++
	return f, true
}

// Free returns a frame to the node. Freeing a frame the node does not own
// or double-freeing is a simulator bug and panics.
func (n *Node) Free(f Frame) {
	if !n.Contains(f) {
		panic(fmt.Sprintf("mem: freeing frame %d to wrong node %d", f, n.ID))
	}
	n.free = append(n.free, f)
	if n.FreeFrames() > n.nframes {
		panic(fmt.Sprintf("mem: node %d free list overflow (double free?)", n.ID))
	}
}

// Topology is the host's set of NUMA nodes.
type Topology struct {
	Nodes []*Node

	// tiers caches each node's frame bound and the two spec fields the
	// per-access hot path needs, in node order. Node ranges are assigned
	// at construction and never move, so the cache is immutable; a
	// hand-built Topology (no NewTopology) leaves it nil, and Tier and
	// NodeOf fall back to scanning Nodes.
	tiers []tierRef
}

// tierRef is one node's entry in the hot-path tier cache.
type tierRef struct {
	limit         Frame // exclusive upper bound of the node's range
	loadedLatency sim.Duration
	kind          TierKind
}

// NewTopology builds a topology from (spec, frames) pairs, assigning
// disjoint frame ranges in order.
func NewTopology(nodes ...NodeConfig) *Topology {
	t := &Topology{}
	var base Frame
	for i, cfg := range nodes {
		if cfg.Frames == 0 {
			panic("mem: node with zero frames")
		}
		t.Nodes = append(t.Nodes, NewNode(i, cfg.Spec, base, cfg.Frames))
		base += Frame(cfg.Frames)
		t.tiers = append(t.tiers, tierRef{limit: base, loadedLatency: cfg.Spec.LoadedLatency, kind: cfg.Spec.Kind})
	}
	return t
}

// Tier resolves the loaded latency and medium kind backing frame f. It is
// the access hot path's tier lookup: node ranges are contiguous and
// ascending, so resolution is a compare per node against the cached
// bounds — no pointer chasing and no TierSpec copy.
//
//demeter:hotpath
func (t *Topology) Tier(f Frame) (loadedLatency sim.Duration, kind TierKind) {
	for i := range t.tiers {
		if f < t.tiers[i].limit {
			return t.tiers[i].loadedLatency, t.tiers[i].kind
		}
	}
	spec := t.NodeOf(f).Spec // hand-built topology or foreign frame
	return spec.LoadedLatency, spec.Kind
}

// TierRange is Tier plus the half-open frame interval [lo, hi) over which
// the answer holds. The batched access path memoizes one TierRange per
// distinct tier touched within a hit run: node ranges are contiguous and
// immutable after construction, so any frame inside the returned bounds
// resolves to the same latency and kind without another call.
//
//demeter:hotpath
func (t *Topology) TierRange(f Frame) (lo, hi Frame, loadedLatency sim.Duration, kind TierKind) {
	for i := range t.tiers {
		if f < t.tiers[i].limit {
			return lo, t.tiers[i].limit, t.tiers[i].loadedLatency, t.tiers[i].kind
		}
		lo = t.tiers[i].limit
	}
	n := t.NodeOf(f) // hand-built topology or foreign frame
	return n.base, n.base + Frame(n.nframes), n.Spec.LoadedLatency, n.Spec.Kind
}

// NodeConfig sizes one node of a new topology.
type NodeConfig struct {
	Spec   TierSpec
	Frames uint64
}

// NodeOf returns the node owning frame f: a compare per node against the
// cached bounds Tier uses, or a Contains scan on a hand-built topology.
//
//demeter:hotpath
func (t *Topology) NodeOf(f Frame) *Node {
	for i := range t.tiers {
		if f < t.tiers[i].limit {
			return t.Nodes[i]
		}
	}
	for _, n := range t.Nodes {
		if n.Contains(f) {
			return n
		}
	}
	panic(fmt.Sprintf("mem: frame %d belongs to no node", f))
}

// SpecOf returns the tier spec backing frame f.
func (t *Topology) SpecOf(f Frame) TierSpec { return t.NodeOf(f).Spec }

// TotalFrames returns the machine's frame count.
func (t *Topology) TotalFrames() uint64 {
	var s uint64
	for _, n := range t.Nodes {
		s += n.nframes
	}
	return s
}

// FastNode returns the first DRAM node (the FMEM pool) and SlowNode the
// first non-DRAM node (the SMEM pool). Preset topologies have exactly one
// of each; custom topologies with more nodes can address them directly.
func (t *Topology) FastNode() *Node {
	for _, n := range t.Nodes {
		if n.Spec.Kind == TierDRAM {
			return n
		}
	}
	panic("mem: topology has no DRAM node")
}

// SlowNode returns the first non-DRAM node.
func (t *Topology) SlowNode() *Node {
	for _, n := range t.Nodes {
		if n.Spec.Kind != TierDRAM {
			return n
		}
	}
	panic("mem: topology has no slow node")
}

// Audit verifies frame conservation for every node of t:
//
//	mapped + held + free == total
//
// where mapped and held (balloon-held) are supplied per node by the
// caller — the allocator hands frames out but cannot know who holds them.
// It also validates free-list integrity: every free frame belongs to its
// node and appears exactly once. Any violation is a frame leak or double
// accounting and returns a descriptive error.
func (t *Topology) Audit(usage func(nodeID int) (mapped, held uint64)) error {
	for _, n := range t.Nodes {
		seen := NewFrameSet(n.next) // indexed by f - base
		for _, f := range n.free {
			if !n.Contains(f) {
				return fmt.Errorf("mem: node %d free list holds foreign frame %d", n.ID, f)
			}
			// A listed frame at or above the mark is free twice: once
			// on the list and once as never allocated.
			i := f - n.base
			if uint64(i) >= n.next || seen.Has(i) {
				return fmt.Errorf("mem: node %d free list holds frame %d twice", n.ID, f)
			}
			seen.Add(i)
		}
		mapped, held := usage(n.ID)
		if got := mapped + held + n.FreeFrames(); got != n.nframes {
			return fmt.Errorf("mem: node %d frame leak: mapped %d + held %d + free %d = %d, want %d",
				n.ID, mapped, held, n.FreeFrames(), got, n.nframes)
		}
	}
	return nil
}

// FrameSet is a set of frames below a fixed limit, one bit per frame:
// the dense form of a frame-keyed map for the balloon's held set and the
// audits' ownership checks.
type FrameSet []uint64

// NewFrameSet returns an empty set over frames [0, limit).
func NewFrameSet(limit uint64) FrameSet { return make(FrameSet, (limit+63)/64) }

// Has reports whether f is in the set; a frame at or past the limit never is.
func (s FrameSet) Has(f Frame) bool {
	w := uint64(f) / 64
	return w < uint64(len(s)) && s[w]&(1<<(f%64)) != 0
}

// Add puts f, which must be below the limit, in the set.
func (s FrameSet) Add(f Frame) { s[f/64] |= 1 << (f % 64) }

// Remove takes f out of the set.
func (s FrameSet) Remove(f Frame) { s[f/64] &^= 1 << (f % 64) }

// CountOn returns how many of n's frames are in the set, which must
// cover n's range.
func (s FrameSet) CountOn(n *Node) uint64 {
	lo, hi := uint64(n.base), uint64(n.base)+n.nframes
	var c int
	for lo < hi {
		w := s[lo/64] >> (lo % 64)
		if span := 64 - lo%64; hi-lo < span {
			w &= 1<<(hi-lo) - 1
			lo = hi
		} else {
			lo += span
		}
		c += bits.OnesCount64(w)
	}
	return uint64(c)
}

// GiB expresses a byte count in frames.
func GiB(n float64) uint64 { return uint64(n * (1 << 30) / PageSize) }

// MiB expresses a byte count in frames.
func MiB(n float64) uint64 { return uint64(n * (1 << 20) / PageSize) }

// PaperDRAMPMEM returns the paper's primary configuration: one DRAM node
// (FMEM) and one PMEM node (SMEM), sized fmemFrames/smemFrames.
func PaperDRAMPMEM(fmemFrames, smemFrames uint64) *Topology {
	return NewTopology(
		NodeConfig{Spec: SpecLocalDRAM, Frames: fmemFrames},
		NodeConfig{Spec: SpecPMEM, Frames: smemFrames},
	)
}

// PaperDRAMCXL returns the CXL.mem configuration (emulated via remote
// DRAM, following Pond).
func PaperDRAMCXL(fmemFrames, smemFrames uint64) *Topology {
	return NewTopology(
		NodeConfig{Spec: SpecLocalDRAM, Frames: fmemFrames},
		NodeConfig{Spec: SpecCXL, Frames: smemFrames},
	)
}

// PaperTopology resolves a slow-tier name to its topology constructor:
// "pmem" (or "", the default) to PaperDRAMPMEM and "cxl" to PaperDRAMCXL.
// It is the one place the tier names are decided; any other name is an
// error.
func PaperTopology(tier string) (func(fmemFrames, smemFrames uint64) *Topology, error) {
	switch tier {
	case "", "pmem":
		return PaperDRAMPMEM, nil
	case "cxl":
		return PaperDRAMCXL, nil
	}
	return nil, fmt.Errorf("unknown tier %q (want pmem or cxl)", tier)
}
