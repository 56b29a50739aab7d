package guestos

import (
	"fmt"
	"strings"
	"testing"

	"demeter/internal/mem"
	"demeter/internal/simrand"
)

// guestTopo builds a small guest-physical layout: 64 FMEM + 256 SMEM frames.
func guestTopo() *mem.Topology {
	return mem.PaperDRAMPMEM(64, 256)
}

func TestAllocPrefersFastNode(t *testing.T) {
	k := NewKernel(guestTopo())
	f, node, ok := k.AllocPage(-1)
	if !ok || node != 0 {
		t.Fatalf("first alloc: frame=%d node=%d ok=%v", f, node, ok)
	}
	if k.Stats().AllocsPerNode[0] != 1 {
		t.Fatal("alloc not accounted to node 0")
	}
}

func TestAllocFallsBackWhenFastExhausted(t *testing.T) {
	k := NewKernel(guestTopo())
	for i := 0; i < 64; i++ {
		if _, node, ok := k.AllocPage(-1); !ok || node != 0 {
			t.Fatalf("alloc %d: node=%d ok=%v", i, node, ok)
		}
	}
	_, node, ok := k.AllocPage(-1)
	if !ok || node != 1 {
		t.Fatalf("fallback alloc: node=%d ok=%v", node, ok)
	}
	if k.Stats().OOMFallbacks != 1 {
		t.Fatalf("fallbacks = %d", k.Stats().OOMFallbacks)
	}
}

func TestAllocPageOnNoFallback(t *testing.T) {
	k := NewKernel(guestTopo())
	for i := 0; i < 64; i++ {
		k.AllocPageOn(0)
	}
	if _, ok := k.AllocPageOn(0); ok {
		t.Fatal("AllocPageOn fell back despite exhausted node")
	}
	if _, ok := k.AllocPageOn(1); !ok {
		t.Fatal("node 1 should still have frames")
	}
}

func TestFreePageReturnsToOwningNode(t *testing.T) {
	k := NewKernel(guestTopo())
	f, node, _ := k.AllocPage(-1)
	before := k.Topo.Nodes[node].FreeFrames()
	k.FreePage(f)
	if k.Topo.Nodes[node].FreeFrames() != before+1 {
		t.Fatal("frame not returned to its node")
	}
}

func TestReserveRestore(t *testing.T) {
	k := NewKernel(guestTopo())
	pages := k.ReserveFree(0, 60)
	if len(pages) != 60 {
		t.Fatalf("reserved %d", len(pages))
	}
	if k.BalloonedPages() != 60 {
		t.Fatalf("ballooned = %d", k.BalloonedPages())
	}
	if k.Topo.Nodes[0].FreeFrames() != 4 {
		t.Fatalf("node 0 free = %d", k.Topo.Nodes[0].FreeFrames())
	}
	// Over-asking reserves only what is free.
	more := k.ReserveFree(0, 100)
	if len(more) != 4 {
		t.Fatalf("second reserve = %d", len(more))
	}
	k.Restore(pages)
	k.Restore(more)
	if k.BalloonedPages() != 0 || k.Topo.Nodes[0].FreeFrames() != 64 {
		t.Fatal("restore did not return all pages")
	}
}

// heldByWalk counts the balloon-held frames on node, frame by frame.
func heldByWalk(k *Kernel, node int) uint64 {
	var n uint64
	for f := mem.Frame(0); uint64(f) < k.Topo.TotalFrames(); f++ {
		if k.ballooned.Has(f) && k.Topo.NodeOf(f).ID == node {
			n++
		}
	}
	return n
}

// The kept per-node counts follow a seeded mix of inflations and
// deflations on both nodes, step by step.
func TestBalloonedOnMatchesMapWalk(t *testing.T) {
	k := NewKernel(guestTopo())
	rng := simrand.New(11)
	var held [2][]mem.Frame
	for step := 0; step < 2000; step++ {
		node := rng.Intn(2)
		if rng.Bool(0.5) {
			held[node] = append(held[node], k.ReserveFree(node, uint64(rng.Intn(40)))...)
		} else if len(held[node]) > 0 {
			rng.Shuffle(len(held[node]), func(i, j int) { held[node][i], held[node][j] = held[node][j], held[node][i] })
			n := rng.Intn(len(held[node]) + 1)
			k.Restore(held[node][:n])
			held[node] = held[node][n:]
		}
		for nd := 0; nd < 2; nd++ {
			if got, want := k.BalloonedOn(nd), heldByWalk(k, nd); got != want {
				t.Fatalf("step %d: BalloonedOn(%d) = %d, map walk %d", step, nd, got, want)
			}
		}
		if err := k.Audit(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if k.BalloonedOn(2) != 0 || k.BalloonedOn(-1) != 0 {
		t.Fatal("a node outside the topology reports balloon-held frames")
	}
}

func TestAuditCatchesDriftedBalloonCount(t *testing.T) {
	k := NewKernel(guestTopo())
	k.ReserveFree(1, 10)
	k.heldOn[1]++
	err := k.Audit()
	if err == nil || !strings.Contains(err.Error(), "node 1") {
		t.Fatalf("Audit = %v, want an error naming node 1", err)
	}
}

func TestRestoreForeignFramePanics(t *testing.T) {
	k := NewKernel(guestTopo())
	f, _, _ := k.AllocPage(-1)
	defer func() {
		if recover() == nil {
			t.Fatal("restoring non-ballooned frame did not panic")
		}
	}()
	k.Restore([]mem.Frame{f})
}

func TestBrkGrowsHeap(t *testing.T) {
	k := NewKernel(guestTopo())
	p := k.NewProcess("w")
	s1 := p.Brk(10000)
	if s1 != HeapBase {
		t.Fatalf("first brk start = %#x", s1)
	}
	s2 := p.Brk(4096)
	if s2 != HeapBase+12288 { // 10000 page-aligned to 12288
		t.Fatalf("second brk start = %#x", s2)
	}
	start, end := p.HeapRange()
	if start != HeapBase || end != HeapBase+16384 {
		t.Fatalf("heap range = %#x..%#x", start, end)
	}
	// Only one heap region regardless of Brk count.
	heapCount := 0
	for _, r := range p.Regions() {
		if r.Kind == "heap" {
			heapCount++
		}
	}
	if heapCount != 1 {
		t.Fatalf("heap regions = %d", heapCount)
	}
}

func TestMmapGrowsDownAligned(t *testing.T) {
	k := NewKernel(guestTopo())
	p := k.NewProcess("w")
	a := p.Mmap(1)       // rounds to 2 MiB
	b := p.Mmap(3 << 20) // rounds to 4 MiB
	if a != MmapBase-(2<<20) {
		t.Fatalf("first mmap at %#x", a)
	}
	if b != a-(4<<20) {
		t.Fatalf("second mmap at %#x", b)
	}
	if a%HugeAlign != 0 || b%HugeAlign != 0 {
		t.Fatal("mmap regions not 2MiB aligned")
	}
	lo, hi := p.MmapRange()
	if lo != b || hi != MmapBase {
		t.Fatalf("mmap range = %#x..%#x", lo, hi)
	}
}

func TestFaultFirstTouchMapsFastFirst(t *testing.T) {
	k := NewKernel(guestTopo())
	p := k.NewProcess("w")
	start := p.Mmap(100 * mem.PageSize)
	gvpn := start >> PageShift
	gpfn, node, ok := p.HandleFault(gvpn)
	if !ok || node != 0 {
		t.Fatalf("fault: node=%d ok=%v", node, ok)
	}
	got, ok := p.Translate(gvpn)
	if !ok || got != gpfn {
		t.Fatalf("translate = %d,%v", got, ok)
	}
	if k.Stats().MinorFaults != 1 {
		t.Fatalf("faults = %d", k.Stats().MinorFaults)
	}
}

func TestFaultOutsideVMAPanics(t *testing.T) {
	k := NewKernel(guestTopo())
	p := k.NewProcess("w")
	defer func() {
		if recover() == nil {
			t.Fatal("wild fault did not panic")
		}
	}()
	p.HandleFault(0x1234)
}

func TestFaultOOMReturnsFalse(t *testing.T) {
	k := NewKernel(mem.PaperDRAMPMEM(2, 2))
	p := k.NewProcess("w")
	start := p.Mmap(10 * mem.PageSize)
	base := start >> PageShift
	for i := uint64(0); i < 4; i++ {
		if _, _, ok := p.HandleFault(base + i); !ok {
			t.Fatalf("fault %d should succeed", i)
		}
	}
	if _, _, ok := p.HandleFault(base + 4); ok {
		t.Fatal("fault beyond capacity should fail")
	}
}

// The locality-clobbering property Figure 4 rests on: sequential virtual
// touch order after frees yields non-sequential physical frames.
func TestLazyAllocationClobbersPhysicalLocality(t *testing.T) {
	k := NewKernel(guestTopo())
	p := k.NewProcess("w")
	start := p.Mmap(32 * mem.PageSize)
	base := start >> PageShift

	// Touch 8 pages, free some of their frames out of order (simulating
	// another process's churn), then touch 8 more.
	var first []mem.Frame
	for i := uint64(0); i < 8; i++ {
		f, _, _ := p.HandleFault(base + i)
		first = append(first, f)
	}
	for _, i := range []int{6, 2, 4} {
		gpfn, _ := p.Translate(base + uint64(i))
		p.GPT.Unmap(base + uint64(i))
		k.FreePage(gpfn)
		_ = first
	}
	sequential := true
	var prev mem.Frame
	for i := uint64(8); i < 16; i++ {
		f, _, _ := p.HandleFault(base + i)
		if i > 8 && f != prev+1 {
			sequential = false
		}
		prev = f
	}
	if sequential {
		t.Fatal("physical frames stayed sequential; LIFO recycling should scatter them")
	}
}

func TestContextSwitchHooks(t *testing.T) {
	k := NewKernel(guestTopo())
	calls := 0
	k.RegisterContextSwitchHook(func() { calls++ })
	k.RegisterContextSwitchHook(func() { calls += 10 })
	k.ContextSwitch()
	k.ContextSwitch()
	if calls != 22 {
		t.Fatalf("calls = %d", calls)
	}
	if k.Stats().CtxSwitches != 2 {
		t.Fatalf("switches = %d", k.Stats().CtxSwitches)
	}
}

func TestNodeOfGPFN(t *testing.T) {
	k := NewKernel(guestTopo())
	if k.NodeOfGPFN(10) != 0 || k.NodeOfGPFN(100) != 1 {
		t.Fatal("NodeOfGPFN wrong")
	}
}

// faultIn maps n heap pages of p by first touch and returns their gvpns.
func faultIn(t *testing.T, p *Process, n int) []uint64 {
	t.Helper()
	start := p.Brk(uint64(n) * mem.PageSize)
	gvpns := make([]uint64, n)
	for i := range gvpns {
		gvpns[i] = start>>PageShift + uint64(i)
		if _, _, ok := p.HandleFault(gvpns[i]); !ok {
			t.Fatalf("fault %d failed", i)
		}
	}
	return gvpns
}

func TestAuditNamesFrameMappedByTwoProcesses(t *testing.T) {
	k := NewKernel(guestTopo())
	a, b := k.NewProcess("a"), k.NewProcess("b")
	faultIn(t, a, 3)
	gvpns := faultIn(t, b, 3)
	shared, _ := a.Translate(faultIn(t, a, 1)[0])
	b.GPT.Remap(gvpns[1], uint64(shared))
	want := fmt.Sprintf("guestos: gpfn %d mapped twice (a and b gvpn %#x)", shared, gvpns[1])
	if err := k.Audit(); err == nil || err.Error() != want {
		t.Fatalf("Audit = %v, want %q", err, want)
	}
}

func TestAuditNamesFrameMappedAndBalloonHeld(t *testing.T) {
	k := NewKernel(guestTopo())
	p := k.NewProcess("a")
	gvpns := faultIn(t, p, 4)
	held := k.ReserveFree(1, 2)
	p.GPT.Remap(gvpns[2], uint64(held[1]))
	want := fmt.Sprintf("guestos: gpfn %d both mapped (a) and balloon-held", held[1])
	if err := k.Audit(); err == nil || err.Error() != want {
		t.Fatalf("Audit = %v, want %q", err, want)
	}
}
