package mem

import (
	"fmt"
	"testing"
	"testing/quick"

	"demeter/internal/sim"
	"demeter/internal/simrand"
)

func testTopo() *Topology {
	return PaperDRAMPMEM(100, 500)
}

func TestTopologyLayout(t *testing.T) {
	topo := testTopo()
	if len(topo.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(topo.Nodes))
	}
	if topo.TotalFrames() != 600 {
		t.Fatalf("total = %d", topo.TotalFrames())
	}
	if topo.FastNode().Spec.Kind != TierDRAM {
		t.Fatal("fast node is not DRAM")
	}
	if topo.SlowNode().Spec.Kind != TierPMEM {
		t.Fatal("slow node is not PMEM")
	}
	// Frame ranges are disjoint and ordered.
	if !topo.Nodes[0].Contains(0) || !topo.Nodes[0].Contains(99) || topo.Nodes[0].Contains(100) {
		t.Fatal("node 0 range wrong")
	}
	if !topo.Nodes[1].Contains(100) || !topo.Nodes[1].Contains(599) {
		t.Fatal("node 1 range wrong")
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	n := NewNode(0, SpecLocalDRAM, 0, 10)
	var frames []Frame
	for i := 0; i < 10; i++ {
		f, ok := n.Alloc()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		frames = append(frames, f)
	}
	if _, ok := n.Alloc(); ok {
		t.Fatal("alloc on exhausted node succeeded")
	}
	if n.FreeFrames() != 0 || n.UsedFrames() != 10 {
		t.Fatalf("free/used = %d/%d", n.FreeFrames(), n.UsedFrames())
	}
	seen := make(map[Frame]bool)
	for _, f := range frames {
		if seen[f] {
			t.Fatalf("duplicate frame %d", f)
		}
		seen[f] = true
		n.Free(f)
	}
	if n.FreeFrames() != 10 {
		t.Fatalf("free = %d after all returned", n.FreeFrames())
	}
}

func TestAllocIsLIFOAfterFree(t *testing.T) {
	n := NewNode(0, SpecLocalDRAM, 0, 4)
	a, _ := n.Alloc()
	b, _ := n.Alloc()
	n.Free(a)
	n.Free(b)
	c, _ := n.Alloc()
	if c != b {
		t.Fatalf("allocator is not LIFO: freed %d last, got %d", b, c)
	}
}

func TestFreeWrongNodePanics(t *testing.T) {
	topo := testTopo()
	defer func() {
		if recover() == nil {
			t.Fatal("freeing to wrong node did not panic")
		}
	}()
	topo.Nodes[0].Free(Frame(200)) // belongs to node 1
}

func TestNodeOfAndSpecOf(t *testing.T) {
	topo := testTopo()
	if topo.NodeOf(50).ID != 0 {
		t.Fatal("frame 50 should be node 0")
	}
	if topo.NodeOf(100).ID != 1 {
		t.Fatal("frame 100 should be node 1")
	}
	if topo.SpecOf(150).Kind != TierPMEM {
		t.Fatal("frame 150 should be PMEM")
	}
}

// TestTierRangeMatchesTier pins the memoization contract the batched
// access path relies on: for every frame, TierRange must agree with Tier,
// and every frame inside the returned [lo, hi) interval must resolve to
// the same (latency, kind).
func TestTierRangeMatchesTier(t *testing.T) {
	topo := testTopo() // 100 DRAM frames, 500 PMEM frames
	for _, f := range []Frame{0, 50, 99, 100, 350, 599} {
		lo, hi, lat, kind := topo.TierRange(f)
		wantLat, wantKind := topo.Tier(f)
		if lat != wantLat || kind != wantKind {
			t.Fatalf("TierRange(%d) = (%v,%v), Tier = (%v,%v)", f, lat, kind, wantLat, wantKind)
		}
		if f < lo || f >= hi {
			t.Fatalf("TierRange(%d) bounds [%d,%d) exclude the queried frame", f, lo, hi)
		}
		for _, probe := range []Frame{lo, (lo + hi) / 2, hi - 1} {
			if l, k := topo.Tier(probe); l != lat || k != kind {
				t.Fatalf("frame %d in range [%d,%d) resolves to (%v,%v), want (%v,%v)", probe, lo, hi, l, k, lat, kind)
			}
		}
	}
	if lo, hi, _, _ := topo.TierRange(99); lo != 0 || hi != 100 {
		t.Fatalf("DRAM range = [%d,%d), want [0,100)", lo, hi)
	}
	if lo, hi, _, _ := topo.TierRange(100); lo != 100 || hi != 600 {
		t.Fatalf("PMEM range = [%d,%d), want [100,600)", lo, hi)
	}

	// Hand-built topology (no tier cache): the NodeOf fallback must still
	// report the owning node's exact bounds.
	hand := &Topology{Nodes: []*Node{
		NewNode(0, SpecLocalDRAM, 0, 64),
		NewNode(1, SpecCXL, 64, 32),
	}}
	lo, hi, lat, kind := hand.TierRange(70)
	if lo != 64 || hi != 96 || lat != SpecCXL.LoadedLatency || kind != SpecCXL.Kind {
		t.Fatalf("fallback TierRange(70) = [%d,%d) (%v,%v)", lo, hi, lat, kind)
	}
}

// containsNodeOf is NodeOf as a scan of Node.Contains, the reference the
// cached-bound lookup must agree with.
func containsNodeOf(t *Topology, f Frame) *Node {
	for _, n := range t.Nodes {
		if n.Contains(f) {
			return n
		}
	}
	return nil
}

// NodeOf answers from the cached node bounds exactly as the Contains scan
// does, for every frame, and panics with the same text on a frame no node
// owns.
func TestNodeOfMatchesContainsScan(t *testing.T) {
	type named struct {
		name string
		topo *Topology
	}
	topos := []named{
		{"PaperDRAMPMEM", PaperDRAMPMEM(100, 500)},
		{"three nodes", NewTopology(
			NodeConfig{Spec: SpecLocalDRAM, Frames: 3},
			NodeConfig{Spec: SpecCXL, Frames: 1},
			NodeConfig{Spec: SpecPMEM, Frames: 70},
		)},
		{"hand-built three nodes", &Topology{Nodes: []*Node{
			NewNode(0, SpecLocalDRAM, 0, 5),
			NewNode(1, SpecCXL, 5, 2),
			NewNode(2, SpecPMEM, 7, 40),
		}}},
	}
	for _, tier := range []string{"pmem", "cxl"} {
		build, err := PaperTopology(tier)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, named{"PaperTopology " + tier, build(64, 192)})
	}
	for _, nt := range topos {
		name, topo := nt.name, nt.topo
		total := Frame(topo.TotalFrames())
		for f := Frame(0); f < total; f++ {
			if got, want := topo.NodeOf(f), containsNodeOf(topo, f); got != want {
				t.Fatalf("%s: NodeOf(%d) = node %d, want node %d", name, f, got.ID, want.ID)
			}
		}
		for _, f := range []Frame{total, total + 1000, InvalidFrame} {
			if containsNodeOf(topo, f) != nil {
				t.Fatalf("%s: frame %d is not foreign", name, f)
			}
			func() {
				want := fmt.Sprintf("mem: frame %d belongs to no node", f)
				defer func() {
					if r := recover(); r != want {
						t.Fatalf("%s: NodeOf(%d) panicked with %v, want %q", name, f, r, want)
					}
				}()
				topo.NodeOf(f)
			}()
		}
	}
}

func TestNodeOfUnknownFramePanics(t *testing.T) {
	topo := testTopo()
	defer func() {
		if recover() == nil {
			t.Fatal("NodeOf on unowned frame did not panic")
		}
	}()
	topo.NodeOf(Frame(10_000))
}

func TestCopyCost(t *testing.T) {
	// A 4 KiB page DRAM->PMEM is limited by PMEM write bandwidth
	// (8000 MB/s): 4096B * 1000 / 8000 = 512ns.
	got := CopyCost(SpecLocalDRAM, SpecPMEM, PageSize)
	if got != 512 {
		t.Fatalf("DRAM->PMEM 4KiB copy = %v, want 512ns", got)
	}
	// PMEM->DRAM is limited by PMEM read (21414.5 MB/s): ~191ns.
	got = CopyCost(SpecPMEM, SpecLocalDRAM, PageSize)
	if got < 185 || got > 195 {
		t.Fatalf("PMEM->DRAM 4KiB copy = %v, want ~191ns", got)
	}
	// Promotion (SMEM->FMEM) must be cheaper than demotion on Optane.
	if CopyCost(SpecPMEM, SpecLocalDRAM, PageSize) >= CopyCost(SpecLocalDRAM, SpecPMEM, PageSize) {
		t.Fatal("PMEM promotion should be cheaper than demotion")
	}
}

func TestPaperLatencyOrdering(t *testing.T) {
	// Table 2's ordering: L2 < L-DRAM < R-DRAM = CXL < L-PMEM.
	if !(SpecL2.LoadLatency < SpecLocalDRAM.LoadLatency &&
		SpecLocalDRAM.LoadLatency < SpecRemoteDRAM.LoadLatency &&
		SpecRemoteDRAM.LoadLatency == SpecCXL.LoadLatency &&
		SpecCXL.LoadLatency < SpecPMEM.LoadLatency) {
		t.Fatal("tier latency ordering violates Table 2")
	}
}

func TestGiBMiB(t *testing.T) {
	if GiB(1) != 262144 {
		t.Fatalf("GiB(1) = %d frames", GiB(1))
	}
	if MiB(2) != 512 {
		t.Fatalf("MiB(2) = %d frames", MiB(2))
	}
}

func TestTierKindString(t *testing.T) {
	if TierPMEM.String() != "PMEM" || TierDRAM.String() != "DRAM" {
		t.Fatal("TierKind.String broken")
	}
}

func TestPropertyAllocNeverReturnsSameFrameTwice(t *testing.T) {
	err := quick.Check(func(nAlloc uint8) bool {
		n := NewNode(0, SpecLocalDRAM, 100, 64)
		seen := make(map[Frame]bool)
		for i := 0; i < int(nAlloc); i++ {
			f, ok := n.Alloc()
			if !ok {
				return i >= 64
			}
			if seen[f] || !n.Contains(f) {
				return false
			}
			seen[f] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCopyCostScalesWithSize(t *testing.T) {
	small := CopyCost(SpecLocalDRAM, SpecPMEM, PageSize)
	large := CopyCost(SpecLocalDRAM, SpecPMEM, 512*PageSize)
	if large != 512*small {
		t.Fatalf("copy cost not linear: %v vs 512*%v", large, small)
	}
}

func TestCopyCostPanicsWithoutBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CopyCost on L2 spec did not panic")
		}
	}()
	CopyCost(SpecL2, SpecLocalDRAM, PageSize)
}

func TestCXLTopology(t *testing.T) {
	topo := PaperDRAMCXL(10, 50)
	if topo.SlowNode().Spec.Kind != TierCXL {
		t.Fatal("CXL topology slow node wrong")
	}
	if topo.SlowNode().Spec.LoadLatency != sim.Duration(122) {
		t.Fatal("CXL latency should follow remote DRAM per Pond emulation")
	}
}

// eagerNode is the reference allocator: the whole free list pushed in
// reverse at construction, then popped and pushed LIFO.
type eagerNode struct{ free []Frame }

func newEagerNode(base Frame, nframes uint64) *eagerNode {
	e := &eagerNode{}
	for i := nframes; i > 0; i-- {
		e.free = append(e.free, base+Frame(i-1))
	}
	return e
}

func (e *eagerNode) alloc() (Frame, bool) {
	if len(e.free) == 0 {
		return InvalidFrame, false
	}
	f := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	return f, true
}

// The lazily filled free list hands out frames in exactly the eager
// list's order under a seeded mix of allocations and frees, exhaustion
// included.
func TestLazyFreeListMatchesEagerOrder(t *testing.T) {
	const base, nframes = 100, 64
	n, ref := NewNode(0, SpecLocalDRAM, base, nframes), newEagerNode(base, nframes)
	var held []Frame
	rng := simrand.New(7)
	for step := 0; step < 5000; step++ {
		if rng.Intn(3) > 0 {
			f, ok := n.Alloc()
			g, rok := ref.alloc()
			if f != g || ok != rok {
				t.Fatalf("step %d: Alloc = %d,%v, eager list gives %d,%v", step, f, ok, g, rok)
			}
			if ok {
				held = append(held, f)
			}
		} else if len(held) > 0 {
			i := rng.Intn(len(held))
			f := held[i]
			held = append(held[:i], held[i+1:]...)
			n.Free(f)
			ref.free = append(ref.free, f)
		}
		if got := n.FreeFrames(); got != uint64(len(ref.free)) {
			t.Fatalf("step %d: FreeFrames = %d, eager list holds %d", step, got, len(ref.free))
		}
	}
}

func TestFrameSetCountOn(t *testing.T) {
	// Node ranges that start and end inside 64-frame words.
	topo := NewTopology(
		NodeConfig{Spec: SpecLocalDRAM, Frames: 37},
		NodeConfig{Spec: SpecPMEM, Frames: 150},
		NodeConfig{Spec: SpecCXL, Frames: 5},
	)
	s := NewFrameSet(topo.TotalFrames())
	for f := Frame(0); uint64(f) < topo.TotalFrames(); f++ {
		if f%3 == 0 || f%7 == 1 {
			s.Add(f)
		}
	}
	s.Remove(36)
	// Set each later node's first frame, so a count that runs past the
	// end of the node before it is caught.
	s.Add(37)
	s.Add(187)
	for _, n := range topo.Nodes {
		var want uint64
		for f := n.base; f < n.base+Frame(n.nframes); f++ {
			if s.Has(f) {
				want++
			}
		}
		if got := s.CountOn(n); got != want {
			t.Errorf("node %d: CountOn = %d, frame-by-frame count %d", n.ID, got, want)
		}
	}
	if s.Has(Frame(topo.TotalFrames() + 64)) {
		t.Error("a frame past the limit is in the set")
	}
}
