package hypervisor

import (
	"fmt"
	"testing"

	"demeter/internal/fault"
	"demeter/internal/guestos"
	"demeter/internal/mem"
)

// warmVM touches 100 pages so the first 64 land on FMEM and the rest on
// SMEM, and returns a hot (SMEM) and cold (FMEM) gVPN.
func warmVM(t *testing.T) (*Machine, *VM, uint64, uint64) {
	t.Helper()
	m, vm := newTestVM(t)
	start := vm.Proc.Mmap(200 * mem.PageSize)
	for i := uint64(0); i < 100; i++ {
		vm.Access(start+i*mem.PageSize, false)
	}
	hot := (start + 99*mem.PageSize) >> guestos.PageShift
	cold := start >> guestos.PageShift
	return m, vm, hot, cold
}

func auditAll(t *testing.T, m *Machine, vm *VM) {
	t.Helper()
	if err := m.AuditFrames(); err != nil {
		t.Fatalf("host frame audit: %v", err)
	}
	if err := vm.AuditGuestFrames(); err != nil {
		t.Fatalf("guest frame audit: %v", err)
	}
	if err := vm.AuditMappings(); err != nil {
		t.Fatalf("mapping audit: %v", err)
	}
}

func TestMigrateCopyFaultRollsBack(t *testing.T) {
	m, vm, hot, cold := warmVM(t)
	m.Fault = fault.NewInjector(1)

	// Free an FMEM slot first (no faults armed yet).
	if _, err := vm.MigrateGuestPage(cold, 1); err != nil {
		t.Fatal(err)
	}
	m.Fault.Arm(FaultMigrateCopy, 1)
	cost, err := vm.MigrateGuestPage(hot, 0)
	if err != ErrCopyFault {
		t.Fatalf("err = %v, want ErrCopyFault", err)
	}
	if cost <= 0 {
		t.Fatal("a rolled-back migration still burns the work already done")
	}
	if fast, mapped := vm.ResidentTier(hot); !mapped || fast {
		t.Fatal("rollback must keep the original SMEM mapping")
	}
	if vm.Kernel.Topo.Nodes[0].FreeFrames() != 1 {
		t.Fatal("rollback must return the fresh FMEM frame to the free list")
	}
	if vm.Stats().MigrateRollbacks != 1 {
		t.Fatalf("stats = %+v, want 1 migrate rollback", vm.Stats())
	}
	auditAll(t, m, vm)

	// The page is still usable and a clean retry succeeds.
	if c := vm.Access(hot<<guestos.PageShift, false); c <= 0 {
		t.Fatal("page unusable after rollback")
	}
	m.Fault.Arm(FaultMigrateCopy, 0)
	if _, err := vm.MigrateGuestPage(hot, 0); err != nil {
		t.Fatalf("retry after rollback: %v", err)
	}
	if fast, _ := vm.ResidentTier(hot); !fast {
		t.Fatal("retry did not promote")
	}
	auditAll(t, m, vm)
}

func TestSwapCopyFaultRollsBack(t *testing.T) {
	m, vm, hot, cold := warmVM(t)
	m.Fault = fault.NewInjector(1)
	m.Fault.Arm(FaultMigrateCopy, 1)

	cost, err := vm.SwapGuestPages(hot, cold)
	if err != ErrCopyFault {
		t.Fatalf("err = %v, want ErrCopyFault", err)
	}
	if cost <= 0 {
		t.Fatal("rolled-back swap must still cost time")
	}
	if fast, _ := vm.ResidentTier(hot); fast {
		t.Fatal("hot page moved despite rollback")
	}
	if fast, _ := vm.ResidentTier(cold); !fast {
		t.Fatal("cold page moved despite rollback")
	}
	if vm.Stats().SwapRollbacks != 1 {
		t.Fatalf("stats = %+v, want 1 swap rollback", vm.Stats())
	}
	if vm.Kernel.Topo.Nodes[0].FreeFrames() != 0 {
		t.Fatal("swap rollback must not leak or allocate frames")
	}
	auditAll(t, m, vm)

	// Both pages remain accessible, and the disarmed retry commits.
	vm.Access(hot<<guestos.PageShift, false)
	vm.Access(cold<<guestos.PageShift, false)
	m.Fault.Arm(FaultMigrateCopy, 0)
	if _, err := vm.SwapGuestPages(hot, cold); err != nil {
		t.Fatalf("retry after rollback: %v", err)
	}
	if fast, _ := vm.ResidentTier(hot); !fast {
		t.Fatal("retry did not swap")
	}
	auditAll(t, m, vm)
}

func TestInjectedBusyFaultRefusesMigration(t *testing.T) {
	m, vm, hot, cold := warmVM(t)
	m.Fault = fault.NewInjector(1)
	m.Fault.Arm(FaultMigrateBusy, 1)
	if _, err := vm.SwapGuestPages(hot, cold); err != ErrPageBusy {
		t.Fatalf("err = %v, want ErrPageBusy", err)
	}
	if fast, _ := vm.ResidentTier(hot); fast {
		t.Fatal("busy refusal must not move the page")
	}
	if _, err := vm.MigrateGuestPage(hot, 0); err != ErrPageBusy {
		t.Fatalf("migrate: err = %v, want ErrPageBusy", err)
	}
	if vm.Stats().MigrateBusy != 2 {
		t.Fatalf("stats = %+v, want 2 busy refusals", vm.Stats())
	}
	auditAll(t, m, vm)
}

func TestLatencySpikeFaultInflatesAccess(t *testing.T) {
	m, vm, hot, _ := warmVM(t)
	base := vm.Access(hot<<guestos.PageShift, false) // warm SMEM access
	m.Fault = fault.NewInjector(1)
	m.Fault.ArmMagnitude(mem.FaultSlowTierSpike, 1, 8)
	spiked := vm.Access(hot<<guestos.PageShift, false)
	if spiked <= base {
		t.Fatalf("spiked access %v not slower than base %v", spiked, base)
	}
	if vm.Stats().LatencySpikes == 0 {
		t.Fatal("spike not counted")
	}
}

func TestAuditCatchesDoubleMappedHostFrame(t *testing.T) {
	m, vm, hot, cold := warmVM(t)
	// Corrupt the EPT: point two gPFNs at one host frame.
	hotGPFN, _ := vm.Proc.Translate(hot)
	coldGPFN, _ := vm.Proc.Translate(cold)
	he := vm.EPT.Lookup(uint64(coldGPFN))
	vm.EPT.Remap(uint64(hotGPFN), he.Value())
	if err := m.AuditFrames(); err == nil {
		t.Fatal("audit missed a double-mapped host frame")
	}
}

func TestAuditNamesHostFrameMappedByTwoVMs(t *testing.T) {
	m, vm0, _, cold := warmVM(t)
	vm1, err := m.NewVM(VMConfig{VCPUs: 1, GuestFMEM: 16, GuestSMEM: 16, FMEMBacking: 0, SMEMBacking: 1})
	if err != nil {
		t.Fatal(err)
	}
	start := vm1.Proc.Mmap(4 * mem.PageSize)
	for i := uint64(0); i < 4; i++ {
		vm1.Access(start+i*mem.PageSize, false)
	}
	gpfn0, _ := vm0.Proc.Translate(cold)
	shared := vm0.EPT.Lookup(uint64(gpfn0)).Value()
	gpfn1, _ := vm1.Proc.Translate(start>>guestos.PageShift + 2)
	vm1.EPT.Remap(uint64(gpfn1), shared)
	want := fmt.Sprintf("hypervisor: host frame %d EPT-mapped by vm%d and vm%d", shared, vm0.ID, vm1.ID)
	if err := m.AuditFrames(); err == nil || err.Error() != want {
		t.Fatalf("AuditFrames = %v, want %q", err, want)
	}
}
