package hypervisor

import (
	"testing"

	"demeter/internal/guestos"
	"demeter/internal/mem"
	"demeter/internal/pebs"
	"demeter/internal/sim"
)

// newTestVM builds a machine with one VM: 64-frame FMEM and 320-frame SMEM
// guest nodes, backed 1:1 by equally sized host pools.
func newTestVM(t *testing.T) (*Machine, *VM) {
	t.Helper()
	eng := sim.NewEngine()
	m := NewMachine(eng, mem.PaperDRAMPMEM(64, 320))
	vm, err := m.NewVM(VMConfig{
		VCPUs:       4,
		GuestFMEM:   64,
		GuestSMEM:   320,
		FMEMBacking: 0,
		SMEMBacking: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := pebs.NewUnit(pebs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	vm.WirePEBS(u)
	if err := u.Arm(); err != nil {
		t.Fatal(err)
	}
	return m, vm
}

func TestVMConfigValidation(t *testing.T) {
	m := NewMachine(sim.NewEngine(), mem.PaperDRAMPMEM(10, 10))
	bad := []VMConfig{
		{VCPUs: 0, GuestFMEM: 1, GuestSMEM: 1},
		{VCPUs: 1, GuestFMEM: 0, GuestSMEM: 1},
		{VCPUs: 1, GuestFMEM: 1, GuestSMEM: 1, SMEMBacking: 7},
	}
	for i, cfg := range bad {
		if _, err := m.NewVM(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestFirstAccessTakesBothFaults(t *testing.T) {
	_, vm := newTestVM(t)
	start := vm.Proc.Mmap(16 * mem.PageSize)
	cost := vm.Access(start, false)
	wantMin := GuestFaultCost + EPTFaultCost + Walk2DCost
	if cost < wantMin {
		t.Fatalf("first access cost %v < faults+walk %v", cost, wantMin)
	}
	st := vm.Stats()
	if st.GuestFaults != 1 || st.EPTFaults != 1 || st.Accesses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWarmAccessCostsTierLatency(t *testing.T) {
	_, vm := newTestVM(t)
	start := vm.Proc.Mmap(16 * mem.PageSize)
	vm.Access(start, false) // cold
	cost := vm.Access(start, false)
	if cost != mem.SpecLocalDRAM.LoadedLatency {
		t.Fatalf("warm FMEM access cost = %v, want loaded latency %v", cost, mem.SpecLocalDRAM.LoadedLatency)
	}
}

func TestFirstTouchLandsOnFMEMThenSpillsToSMEM(t *testing.T) {
	_, vm := newTestVM(t)
	start := vm.Proc.Mmap(200 * mem.PageSize)
	for i := uint64(0); i < 100; i++ {
		vm.Access(start+i*mem.PageSize, false)
	}
	st := vm.Stats()
	// 64 guest FMEM frames; the remaining 36 first-touches fall to SMEM.
	if st.FastHits != 64 || st.SlowHits != 36 {
		t.Fatalf("fast/slow = %d/%d", st.FastHits, st.SlowHits)
	}
	fast, mapped := vm.ResidentTier(start >> guestos.PageShift)
	if !mapped || !fast {
		t.Fatal("first page should be FMEM-resident")
	}
	fast, mapped = vm.ResidentTier((start + 99*mem.PageSize) >> guestos.PageShift)
	if !mapped || fast {
		t.Fatal("late page should be SMEM-resident")
	}
}

func TestAccessSetsADBitsOnlyOnWalks(t *testing.T) {
	_, vm := newTestVM(t)
	start := vm.Proc.Mmap(16 * mem.PageSize)
	gvpn := start >> guestos.PageShift
	vm.Access(start, true)
	ge := vm.Proc.GPT.Lookup(gvpn)
	if !ge.Accessed() || !ge.Dirty() {
		t.Fatal("walk did not set GPT A/D")
	}
	he := vm.EPT.Lookup(ge.Value())
	if !he.Accessed() || !he.Dirty() {
		t.Fatal("walk did not set EPT A/D")
	}
	// Clear and re-access: TLB hit must NOT re-set A (no walk happens).
	ge.ClearAccessed()
	vm.Access(start, false)
	if ge.Accessed() {
		t.Fatal("TLB-hit access set the A bit without a walk")
	}
	// After a flush the next access walks again and re-sets A.
	vm.FlushSingle(gvpn)
	vm.Access(start, false)
	if !ge.Accessed() {
		t.Fatal("post-flush access did not set the A bit")
	}
}

func TestPEBSSeesGuestVirtualPages(t *testing.T) {
	_, vm := newTestVM(t)
	cfg := pebs.DefaultConfig()
	cfg.SamplePeriod = 1
	u, _ := pebs.NewUnit(cfg)
	vm.PEBS = u
	u.Arm()
	start := vm.Proc.Mmap(16 * mem.PageSize)
	vm.Access(start+2*mem.PageSize, false)
	s := u.Drain()
	if len(s) != 1 || s[0].GVPN != (start+2*mem.PageSize)>>guestos.PageShift {
		t.Fatalf("PEBS samples = %v", s)
	}
}

func TestSwapGuestPages(t *testing.T) {
	_, vm := newTestVM(t)
	start := vm.Proc.Mmap(200 * mem.PageSize)
	for i := uint64(0); i < 100; i++ {
		vm.Access(start+i*mem.PageSize, false)
	}
	hot := (start + 99*mem.PageSize) >> guestos.PageShift // SMEM-resident
	cold := start >> guestos.PageShift                    // FMEM-resident
	singleBefore := vm.TLB.Stats().SingleFlushes
	cost, err := vm.SwapGuestPages(hot, cold)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("swap should cost time")
	}
	if vm.TLB.Stats().SingleFlushes != singleBefore+2 {
		t.Fatal("swap should issue exactly two single flushes")
	}
	if vm.TLB.Stats().FullFlushes != 0 {
		t.Fatal("guest swap must never full-flush")
	}
	fast, _ := vm.ResidentTier(hot)
	if !fast {
		t.Fatal("hot page not promoted by swap")
	}
	fast, _ = vm.ResidentTier(cold)
	if fast {
		t.Fatal("cold page not demoted by swap")
	}
	// No allocation happened: guest free lists untouched.
	if vm.Kernel.Topo.Nodes[0].FreeFrames() != 0 {
		t.Fatal("swap allocated FMEM")
	}
}

func TestSwapUnmappedPageFails(t *testing.T) {
	_, vm := newTestVM(t)
	if _, err := vm.SwapGuestPages(1, 2); err == nil {
		t.Fatal("swap of unmapped pages should error")
	}
}

func TestMigrateGuestPage(t *testing.T) {
	_, vm := newTestVM(t)
	start := vm.Proc.Mmap(200 * mem.PageSize)
	for i := uint64(0); i < 100; i++ {
		vm.Access(start+i*mem.PageSize, false)
	}
	// Demote a FMEM page to SMEM (frees an FMEM guest frame).
	victim := start >> guestos.PageShift
	cost, err := vm.MigrateGuestPage(victim, 1)
	if err != nil || cost <= 0 {
		t.Fatalf("demotion failed: cost=%v err=%v", cost, err)
	}
	if fast, _ := vm.ResidentTier(victim); fast {
		t.Fatal("page still FMEM-resident after demotion")
	}
	if vm.Kernel.Topo.Nodes[0].FreeFrames() != 1 {
		t.Fatal("demotion did not free an FMEM guest frame")
	}
	// Promote an SMEM page into the freed slot.
	hot := (start + 99*mem.PageSize) >> guestos.PageShift
	if _, err = vm.MigrateGuestPage(hot, 0); err != nil {
		t.Fatalf("promotion failed despite free FMEM frame: %v", err)
	}
	if fast, _ := vm.ResidentTier(hot); !fast {
		t.Fatal("page not FMEM-resident after promotion")
	}
	// Migrating to the current node is a no-op.
	if _, err := vm.MigrateGuestPage(hot, 0); err != ErrAlreadyPlaced {
		t.Fatalf("same-node migration: err=%v, want ErrAlreadyPlaced", err)
	}
}

func TestMigrateFailsWhenTargetFull(t *testing.T) {
	_, vm := newTestVM(t)
	start := vm.Proc.Mmap(200 * mem.PageSize)
	for i := uint64(0); i < 100; i++ {
		vm.Access(start+i*mem.PageSize, false)
	}
	hot := (start + 99*mem.PageSize) >> guestos.PageShift
	if _, err := vm.MigrateGuestPage(hot, 0); err != ErrNoFrame {
		t.Fatalf("promotion with zero free FMEM frames: err=%v, want ErrNoFrame", err)
	}
}

func TestHostMigrateFullFlushes(t *testing.T) {
	_, vm := newTestVM(t)
	start := vm.Proc.Mmap(16 * mem.PageSize)
	vm.Access(start, false)
	gvpn := start >> guestos.PageShift
	ge := vm.Proc.GPT.Lookup(gvpn)
	fullBefore := vm.TLB.Stats().FullFlushes
	cost, ok := vm.HostMigrate(ge.Value(), 1)
	if !ok || cost <= 0 {
		t.Fatalf("host migrate failed: %v %v", cost, ok)
	}
	if vm.TLB.Stats().FullFlushes != fullBefore+1 {
		t.Fatal("host migration must full-flush (no gVA available)")
	}
	if fast, _ := vm.ResidentTier(gvpn); fast {
		t.Fatal("backing tier unchanged")
	}
	// Guest view unchanged: same gpfn.
	if vm.Proc.GPT.Lookup(gvpn).Value() != ge.Value() {
		t.Fatal("host migration must not alter the guest page table")
	}
}

func TestReleaseGuestFrames(t *testing.T) {
	m, vm := newTestVM(t)
	start := vm.Proc.Mmap(16 * mem.PageSize)
	for i := uint64(0); i < 8; i++ {
		vm.Access(start+i*mem.PageSize, false)
	}
	hostFreeBefore := m.Topo.Nodes[0].FreeFrames()
	// Grab the backing gpfns of the first two pages via the GPT.
	var frames []mem.Frame
	for i := uint64(0); i < 2; i++ {
		ge := vm.Proc.GPT.Lookup((start + i*mem.PageSize) >> guestos.PageShift)
		frames = append(frames, mem.Frame(ge.Value()))
	}
	// Also include a never-backed frame: it must be skipped.
	frames = append(frames, mem.Frame(63))
	released := vm.ReleaseGuestFrames(frames)
	if released != 2 {
		t.Fatalf("released = %d", released)
	}
	if m.Topo.Nodes[0].FreeFrames() != hostFreeBefore+2 {
		t.Fatal("host frames not returned to pool")
	}
	if vm.TLB.Stats().FullFlushes == 0 {
		t.Fatal("EPT unmap requires invalidation")
	}
}

func TestChargeGuestStallsAndLedgers(t *testing.T) {
	_, vm := newTestVM(t)
	vm.ChargeGuest("track", 500)
	if vm.Ledger.Total("track") != 500 {
		t.Fatal("ledger not charged")
	}
	if vm.TakeStall() != 500 {
		t.Fatal("stall not accumulated")
	}
	if vm.TakeStall() != 0 {
		t.Fatal("stall not drained")
	}
}

func TestChargeHostDoesNotStall(t *testing.T) {
	m, vm := newTestVM(t)
	vm.ChargeHost("scan", 1000)
	if m.HostLedger.Total("scan") != 1000 {
		t.Fatal("host ledger not charged")
	}
	if vm.TakeStall() != 0 {
		t.Fatal("host charge must not stall the guest")
	}
}

func TestHostOvercommitSpill(t *testing.T) {
	// Host FMEM pool smaller than guest FMEM node: first touches beyond
	// the host pool spill to PMEM even though the guest thinks they are
	// on its fast node — the provisioning skew Figure 6 is about.
	eng := sim.NewEngine()
	m := NewMachine(eng, mem.PaperDRAMPMEM(16, 320))
	vm, err := m.NewVM(VMConfig{VCPUs: 1, GuestFMEM: 64, GuestSMEM: 320, FMEMBacking: 0, SMEMBacking: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := vm.Proc.Mmap(64 * mem.PageSize)
	for i := uint64(0); i < 64; i++ {
		vm.Access(start+i*mem.PageSize, false)
	}
	if vm.Stats().Spills != 48 {
		t.Fatalf("spills = %d, want 48", vm.Stats().Spills)
	}
}

func TestGuestFreeFrames(t *testing.T) {
	_, vm := newTestVM(t)
	f, s := vm.GuestFreeFrames()
	if f != 64 || s != 320 {
		t.Fatalf("free = %d/%d", f, s)
	}
}

func TestWalkCostModel(t *testing.T) {
	// 24 refs * 100ns * 0.25 = 600ns
	if got := Walk2DCost; got < 550 || got > 650 {
		t.Fatalf("2D walk cost = %v", got)
	}
}

func TestDestroyReleasesHostFrames(t *testing.T) {
	m, vm := newTestVM(t)
	start := vm.Proc.Mmap(32 * mem.PageSize)
	for i := uint64(0); i < 32; i++ {
		vm.Access(start+i*mem.PageSize, false)
	}
	var freeBefore uint64
	for _, n := range m.Topo.Nodes {
		freeBefore += n.FreeFrames()
	}
	vm.Destroy()
	var freeAfter uint64
	for _, n := range m.Topo.Nodes {
		freeAfter += n.FreeFrames()
	}
	if freeAfter != freeBefore+32 {
		t.Fatalf("host frames not released: %d -> %d", freeBefore, freeAfter)
	}
	if len(m.VMs) != 0 {
		t.Fatal("VM still registered")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double destroy did not panic")
		}
	}()
	vm.Destroy()
}
