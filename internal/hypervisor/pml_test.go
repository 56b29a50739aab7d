package hypervisor

import (
	"testing"

	"demeter/internal/mem"
	"demeter/internal/sim"
)

func TestPMLLogsDirtyTransitionsOnly(t *testing.T) {
	_, vm := newTestVM(t)
	pml := NewPML()
	var drained [][]uint64
	pml.OnFull = func(g []uint64) { drained = append(drained, g) }
	vm.EnablePML(pml)
	start := vm.Proc.Mmap(16 * mem.PageSize)
	// First write logs; repeated writes to the same dirty page do not.
	vm.Access(start, true)
	if pml.Stats().Logged != 1 {
		t.Fatalf("logged = %d", pml.Stats().Logged)
	}
	vm.Access(start, true)
	vm.Access(start, true)
	if pml.Stats().Logged != 1 {
		t.Fatalf("re-dirtying logged extra entries: %d", pml.Stats().Logged)
	}
	// Reads never log.
	vm.Access(start+mem.PageSize, false)
	if pml.Stats().Logged != 1 {
		t.Fatal("read logged")
	}
}

func TestPMLExitsWhenFull(t *testing.T) {
	// Two full 512-entry buffers plus two writes need more frames than
	// newTestVM gives.
	m := NewMachine(sim.NewEngine(), mem.PaperDRAMPMEM(2048, 2048))
	vm, err := m.NewVM(VMConfig{VCPUs: 4, GuestFMEM: 2048, GuestSMEM: 2048, SMEMBacking: 1})
	if err != nil {
		t.Fatal(err)
	}
	pml := NewPML()
	var got []uint64
	pml.OnFull = func(g []uint64) { got = append(got, g...) }
	vm.EnablePML(pml)
	const writes = 2*pmlEntries + 2
	start := vm.Proc.Mmap((writes + 4) * mem.PageSize)
	for i := uint64(0); i < writes; i++ {
		vm.Access(start+i*mem.PageSize, true)
	}
	st := pml.Stats()
	if st.Exits != 2 {
		t.Fatalf("exits = %d, want 2 (%d writes / %d entries)", st.Exits, writes, pmlEntries)
	}
	if len(got) != 2*pmlEntries {
		t.Fatalf("drained %d entries", len(got))
	}
	vm.DisablePML()
	for i := uint64(writes); i < writes+4; i++ {
		vm.Access(start+i*mem.PageSize, true)
	}
	if pml.Stats().Logged != writes {
		t.Fatal("disabled PML still logging")
	}
}
