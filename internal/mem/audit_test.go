package mem

import (
	"strings"
	"testing"
)

func TestAuditPassesOnConservedFrames(t *testing.T) {
	topo := PaperDRAMPMEM(8, 8)
	n0 := topo.Nodes[0]
	f1, _ := n0.Alloc()
	f2, _ := n0.Alloc()
	_ = f1
	err := topo.Audit(func(nodeID int) (uint64, uint64) {
		if nodeID == 0 {
			return 1, 1 // f1 mapped, f2 held
		}
		return 0, 0
	})
	if err != nil {
		t.Fatalf("audit of conserved topology failed: %v", err)
	}
	n0.Free(f2)
}

func TestAuditDetectsLeakedFrame(t *testing.T) {
	topo := PaperDRAMPMEM(8, 8)
	n0 := topo.Nodes[0]
	n0.Alloc() // allocated but reported neither mapped nor held
	err := topo.Audit(func(int) (uint64, uint64) { return 0, 0 })
	if err == nil {
		t.Fatal("audit missed a leaked frame")
	}
	if !strings.Contains(err.Error(), "leak") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestAuditDetectsDuplicateFreeListEntry(t *testing.T) {
	// Free already panics on an over-full list, so corrupt the free list
	// directly: of two freed frames, one is replaced by a duplicate of
	// the other, keeping the totals conserved.
	topo := PaperDRAMPMEM(8, 8)
	n0 := topo.Nodes[0]
	f0, _ := n0.Alloc()
	f1, _ := n0.Alloc()
	n0.Alloc()
	n0.Free(f0)
	n0.Free(f1)
	n0.free[1] = f0
	requireAuditError(t, topo, "twice")
}

func TestAuditDetectsFreedFrameAboveMark(t *testing.T) {
	// A never-allocated frame is free by the mark; listing it too counts
	// it twice.
	topo := PaperDRAMPMEM(8, 8)
	n0 := topo.Nodes[0]
	f0, _ := n0.Alloc()
	n0.Alloc()
	n0.Free(f0)
	n0.free[0] = n0.base + 5
	requireAuditError(t, topo, "twice")
}

func TestAuditDetectsForeignFrame(t *testing.T) {
	topo := PaperDRAMPMEM(8, 8)
	n0, n1 := topo.Nodes[0], topo.Nodes[1]
	f, _ := n1.Alloc()
	f0, _ := n0.Alloc()
	n0.Alloc()
	n0.Free(f0)
	n0.free[0] = f // node 0's list now holds node 1's frame
	requireAuditError(t, topo, "foreign")
}

// requireAuditError audits topo with one frame mapped on each node and
// requires an error containing want.
func requireAuditError(t *testing.T, topo *Topology, want string) {
	t.Helper()
	err := topo.Audit(func(int) (uint64, uint64) { return 1, 0 })
	if err == nil {
		t.Fatalf("audit missed a corrupted free list (want %q)", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("unexpected error: %v", err)
	}
}
