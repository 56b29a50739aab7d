// Package guestos models the guest kernel of one virtual machine: the
// process virtual address space (heap and mmap VMAs), first-touch lazy
// page allocation out of per-NUMA-node free lists, the guest page table,
// and the context-switch hook Demeter's sample draining rides on.
//
// Two properties of real kernels that the paper's design leans on are
// modelled deliberately:
//
//   - Lazy allocation maps guest physical frames in *access order*, not
//     address order, and the allocator's LIFO free lists recycle frames
//     arbitrarily. Together they scatter spatial locality across the
//     physical space (Figure 4), which is why Demeter classifies hotness
//     in virtual address space.
//   - The guest sees tiers as NUMA nodes (§3.3 "NUMA-Based Tier
//     Exposure"): node 0 is FMEM, node 1 SMEM, with allocation preferring
//     the local fast node exactly like Linux's default policy.
package guestos

import (
	"fmt"

	"demeter/internal/mem"
	"demeter/internal/pagetable"
)

// Virtual address layout constants (4-level x86-64-like, simplified).
const (
	// HeapBase is start_brk: the heap grows upward from here.
	HeapBase uint64 = 0x5555_0000_0000
	// MmapBase is mmap_base: mappings grow downward from here.
	MmapBase uint64 = 0x7ffe_0000_0000

	// PageShift converts between bytes and pages.
	PageShift = 12
	// HugeAlign aligns mmap regions to 2 MiB, like Linux with THP.
	HugeAlign uint64 = 2 << 20
)

// Stats counts kernel activity.
type Stats struct {
	MinorFaults   uint64 // first-touch allocations
	AllocsPerNode [8]uint64
	Frees         uint64
	CtxSwitches   uint64
	OOMFallbacks  uint64 // allocations that had to leave the preferred node
}

// Kernel is one guest's OS.
type Kernel struct {
	// Topo is the guest-physical memory layout: one node per exposed
	// tier. Frame numbers here are gPFNs.
	Topo *mem.Topology

	// allocOrder is the node preference for first-touch allocation:
	// fast node first, mirroring default local-first NUMA policy.
	allocOrder []int

	procs     []*Process
	ctxHooks  []func()
	stats     Stats
	ballooned mem.FrameSet // pages currently held by a balloon
	// heldOn counts ballooned per node, kept by ReserveFree and Restore
	// so BalloonedOn is O(1); Audit cross-checks it against the set.
	heldOn []uint64
}

// NewKernel builds a guest kernel over the given guest-physical topology.
func NewKernel(topo *mem.Topology) *Kernel {
	k := &Kernel{Topo: topo, ballooned: mem.NewFrameSet(topo.TotalFrames()), heldOn: make([]uint64, len(topo.Nodes))}
	// Fast nodes first, then the rest, preserving node order.
	for _, n := range topo.Nodes {
		if n.Spec.Kind == mem.TierDRAM {
			k.allocOrder = append(k.allocOrder, n.ID)
		}
	}
	for _, n := range topo.Nodes {
		if n.Spec.Kind != mem.TierDRAM {
			k.allocOrder = append(k.allocOrder, n.ID)
		}
	}
	return k
}

// Stats returns a copy of the counters.
func (k *Kernel) Stats() Stats { return k.stats }

// NewProcess creates a process with empty heap and mmap areas.
func (k *Kernel) NewProcess(name string) *Process {
	p := &Process{
		kernel:   k,
		Name:     name,
		GPT:      pagetable.New(),
		brk:      HeapBase,
		mmapNext: MmapBase,
	}
	k.procs = append(k.procs, p)
	return p
}

// AllocPage takes one frame, trying preferred first (pass -1 to use the
// default local-first order), then falling back across nodes. The second
// result is the node the frame came from.
func (k *Kernel) AllocPage(preferred int) (mem.Frame, int, bool) {
	// preferred is tried inline rather than prepended to a fresh slice:
	// this runs on the fault path and must not allocate.
	fallback := false
	if preferred >= 0 {
		n := k.Topo.Nodes[preferred]
		if f, ok := n.Alloc(); ok {
			k.stats.AllocsPerNode[preferred]++
			return f, preferred, true
		}
		fallback = true
	}
	for _, nid := range k.allocOrder {
		n := k.Topo.Nodes[nid]
		if f, ok := n.Alloc(); ok {
			if fallback {
				k.stats.OOMFallbacks++
			}
			k.stats.AllocsPerNode[nid]++
			return f, nid, true
		}
		fallback = true
	}
	return mem.InvalidFrame, -1, false
}

// AllocPageOn takes one frame from exactly the given node, with no
// fallback. Migration target allocation uses this: falling back would
// silently turn a promotion into a lateral move.
func (k *Kernel) AllocPageOn(node int) (mem.Frame, bool) {
	f, ok := k.Topo.Nodes[node].Alloc()
	if ok {
		k.stats.AllocsPerNode[node]++
	}
	return f, ok
}

// FreePage returns a frame to its node.
func (k *Kernel) FreePage(f mem.Frame) {
	k.Topo.NodeOf(f).Free(f)
	k.stats.Frees++
}

// ReserveFree removes up to n free frames from node (balloon inflation).
// The returned frames are out of the allocator until Restore.
func (k *Kernel) ReserveFree(node int, n uint64) []mem.Frame {
	nd := k.Topo.Nodes[node]
	out := make([]mem.Frame, min(n, nd.FreeFrames()))
	for i := range out {
		f, _ := nd.Alloc()
		k.ballooned.Add(f)
		out[i] = f
	}
	k.heldOn[node] += uint64(len(out))
	return out
}

// Restore returns balloon-held frames to their nodes (deflation).
func (k *Kernel) Restore(frames []mem.Frame) {
	for _, f := range frames {
		if !k.ballooned.Has(f) {
			panic(fmt.Sprintf("guestos: restoring frame %d that was not balloon-held", f))
		}
		k.ballooned.Remove(f)
		nd := k.Topo.NodeOf(f)
		k.heldOn[nd.ID]--
		nd.Free(f)
	}
}

// BalloonedPages returns the number of frames currently held by balloons.
func (k *Kernel) BalloonedPages() int {
	var n uint64
	for _, h := range k.heldOn {
		n += h
	}
	return int(n)
}

// BalloonedOn returns the number of balloon-held frames on one node.
func (k *Kernel) BalloonedOn(node int) uint64 {
	if node < 0 || node >= len(k.heldOn) {
		return 0
	}
	return k.heldOn[node]
}

// Audit verifies the guest allocator balances: for each guest node,
// GPT-mapped + balloon-held + free == total, with no guest frame mapped by
// two processes (or twice in one page table), and the kept per-node
// balloon counts match the balloon-held frames.
func (k *Kernel) Audit() error {
	for _, nd := range k.Topo.Nodes {
		if n := k.ballooned.CountOn(nd); n != k.heldOn[nd.ID] {
			return fmt.Errorf("guestos: node %d holds %d balloon frames but counts %d", nd.ID, n, k.heldOn[nd.ID])
		}
	}
	mappedPerNode := make([]uint64, len(k.Topo.Nodes))
	mapped := mem.NewFrameSet(k.Topo.TotalFrames())
	for _, p := range k.procs {
		var dup error
		p.GPT.Scan(func(gvpn uint64, e *pagetable.Entry) bool {
			f := mem.Frame(e.Value())
			node := k.Topo.NodeOf(f).ID
			if mapped.Has(f) {
				dup = fmt.Errorf("guestos: gpfn %d mapped twice (%s and %s gvpn %#x)", f, k.firstMapper(f), p.Name, gvpn)
				return false
			}
			mapped.Add(f)
			if k.ballooned.Has(f) {
				dup = fmt.Errorf("guestos: gpfn %d both mapped (%s) and balloon-held", f, p.Name)
				return false
			}
			mappedPerNode[node]++
			return true
		})
		if dup != nil {
			return dup
		}
	}
	return k.Topo.Audit(func(nodeID int) (mapped, held uint64) {
		return mappedPerNode[nodeID], k.BalloonedOn(nodeID)
	})
}

// firstMapper names the first process, in creation order, whose page
// table maps f: the owner a duplicate mapping is reported against.
func (k *Kernel) firstMapper(f mem.Frame) string {
	for _, p := range k.procs {
		found := false
		p.GPT.Scan(func(_ uint64, e *pagetable.Entry) bool {
			found = mem.Frame(e.Value()) == f
			return !found
		})
		if found {
			return p.Name
		}
	}
	return ""
}

// RegisterContextSwitchHook adds fn to the scheduler's switch-out path.
// Demeter's PEBS draining registers here (§3.2.2): samples are collected
// when the scheduler switches away from the generating process, with no
// dedicated polling thread.
func (k *Kernel) RegisterContextSwitchHook(fn func()) {
	k.ctxHooks = append(k.ctxHooks, fn)
}

// ContextSwitch runs one scheduler switch, invoking all hooks.
func (k *Kernel) ContextSwitch() {
	k.stats.CtxSwitches++
	for _, fn := range k.ctxHooks {
		fn()
	}
}

// NodeOfGPFN returns the guest node id owning a guest frame.
//
//demeter:hotpath
func (k *Kernel) NodeOfGPFN(gpfn mem.Frame) int { return k.Topo.NodeOf(gpfn).ID }

// Process is a guest user process: a virtual address space backed lazily.
type Process struct {
	kernel *Kernel
	Name   string
	// GPT is the process page table: gVPN → gPFN.
	GPT *pagetable.Table

	brk      uint64 // current heap end (bytes)
	mmapNext uint64 // next mmap region end (grows down)
	regions  []Region
}

// Region is one VMA.
type Region struct {
	Kind  string // "heap" or "mmap"
	Start uint64 // byte address, inclusive
	End   uint64 // byte address, exclusive
}

// Brk extends the heap by bytes and returns the start address of the new
// region, like sbrk.
func (p *Process) Brk(bytes uint64) uint64 {
	start := p.brk
	p.brk += pageAlign(bytes)
	p.updateHeapRegion()
	return start
}

func (p *Process) updateHeapRegion() {
	for i := range p.regions {
		if p.regions[i].Kind == "heap" {
			p.regions[i].End = p.brk
			return
		}
	}
	p.regions = append(p.regions, Region{Kind: "heap", Start: HeapBase, End: p.brk})
}

// Mmap reserves a new anonymous region of the given size (rounded to
// 2 MiB) growing down from mmap_base, returning its start address.
func (p *Process) Mmap(bytes uint64) uint64 {
	size := hugeAlign(bytes)
	p.mmapNext -= size
	start := p.mmapNext
	p.regions = append(p.regions, Region{Kind: "mmap", Start: start, End: start + size})
	return start
}

// Regions returns the process VMAs (heap region present only once Brk has
// been called).
func (p *Process) Regions() []Region { return p.regions }

// HeapRange returns [start_brk, brk).
func (p *Process) HeapRange() (start, end uint64) { return HeapBase, p.brk }

// MmapRange returns the span covered by mmap regions: [lowest, mmap_base).
func (p *Process) MmapRange() (start, end uint64) { return p.mmapNext, MmapBase }

// contains reports whether a byte address falls in a mapped VMA.
func (p *Process) contains(addr uint64) bool {
	for _, r := range p.regions {
		if addr >= r.Start && addr < r.End {
			return true
		}
	}
	return false
}

// HandleFault services a minor fault on gvpn: first-touch allocation on
// the preferred node order and GPT mapping. Faulting outside any VMA is a
// segfault and panics — workloads must Setup their regions first.
func (p *Process) HandleFault(gvpn uint64) (gpfn mem.Frame, node int, ok bool) {
	addr := gvpn << PageShift
	if !p.contains(addr) {
		panic(fmt.Sprintf("guestos: %s: fault outside VMAs at %#x", p.Name, addr))
	}
	gpfn, node, ok = p.kernel.AllocPage(-1)
	if !ok {
		return mem.InvalidFrame, -1, false
	}
	p.GPT.Map(gvpn, uint64(gpfn))
	p.kernel.stats.MinorFaults++
	return gpfn, node, true
}

// Translate looks up gvpn, returning the backing guest frame.
func (p *Process) Translate(gvpn uint64) (mem.Frame, bool) {
	e := p.GPT.Lookup(gvpn)
	if e == nil {
		return mem.InvalidFrame, false
	}
	return mem.Frame(e.Value()), true
}

func pageAlign(b uint64) uint64 {
	const m = mem.PageSize - 1
	return (b + m) &^ uint64(m)
}

func hugeAlign(b uint64) uint64 {
	m := HugeAlign - 1
	return (b + m) &^ m
}
