// Package hypervisor models the host side of the virtualized machine: the
// physical machine with its tiered NUMA pools, per-VM extended page tables
// populated lazily on EPT faults, the hardware access path (TLB → 2D walk
// → tier latency) every guest load travels, and the migration primitives
// both guest-delegated and hypervisor-based TMM designs are built from.
package hypervisor

import (
	"errors"
	"fmt"

	"demeter/internal/fault"
	"demeter/internal/guestos"
	"demeter/internal/mem"
	"demeter/internal/obs"
	"demeter/internal/pagetable"
	"demeter/internal/pebs"
	"demeter/internal/sim"
	"demeter/internal/tlb"
)

// Sentinel errors returned by the migration primitives. Callers branch on
// these to decide between retrying (transient: ErrPageBusy, ErrCopyFault,
// ErrNoFrame) and dropping the candidate (permanent: ErrNotMapped,
// ErrAlreadyPlaced).
var (
	ErrNotMapped     = errors.New("page not mapped")
	ErrAlreadyPlaced = errors.New("page already on target node")
	ErrNoFrame       = errors.New("no free frame on target node")
	ErrPageBusy      = errors.New("page transiently busy")
	ErrCopyFault     = errors.New("page copy failed")
)

// Fault points for the migration primitives. A copy fault aborts the
// transfer after the flush and first copy; the primitive rolls back to the
// original mapping. A busy page refuses migration up front, the way a
// pinned or under-I/O page would in a real kernel.
var (
	FaultMigrateCopy = fault.Register("migrate.copy-fail", "hypervisor",
		"page copy fails mid-migration, forcing a rollback", 0.01, 0)
	FaultMigrateBusy = fault.Register("migrate.page-busy", "hypervisor/guestos",
		"page transiently pinned/busy; migration refused", 0.02, 0)
)

// CostModel holds the software and hardware cost constants the simulation
// charges. Defaults are round numbers in the ballpark of measured Linux
// and VMX costs; every experiment uses the same model for every design, so
// only relative magnitudes matter.
type CostModel struct {
	// PTERefLatency is the cost of one page-table memory reference
	// during a walk (page tables live in DRAM).
	PTERefLatency sim.Duration
	// PWCFactor is the fraction of walk references that miss the
	// page-walk caches and pay PTERefLatency.
	PWCFactor float64
	// GuestFaultCost is the guest kernel's minor-fault software path.
	GuestFaultCost sim.Duration
	// EPTFaultCost is a VM exit plus hypervisor backing allocation.
	EPTFaultCost sim.Duration
	// CtxSwitchCost is one guest scheduler switch.
	CtxSwitchCost sim.Duration
	// PMICost is one performance-monitoring interrupt delivery.
	PMICost sim.Duration
	// HintFaultCost is a NUMA-hint minor fault (TPP's promotion path).
	HintFaultCost sim.Duration
	// PTEOpCost is one software PTE manipulation (map/unmap/remap).
	PTEOpCost sim.Duration
	// ScanPTECost is one A/D-bit scan step including LRU bookkeeping —
	// the page-table-walking TMM designs pay it per resident page per
	// round.
	ScanPTECost sim.Duration
	// TLBFlushCost is one single-address invalidation instruction.
	TLBFlushCost sim.Duration
	// TLBFullFlushCost is one full (invept) invalidation.
	TLBFullFlushCost sim.Duration
	// SampleHandleCost is consuming one PEBS record (copy + parse).
	SampleHandleCost sim.Duration
	// TranslateCost is one software gVA→PA translation of a sample
	// (the per-sample page walk HeMem/Memtis pay and Demeter avoids).
	TranslateCost sim.Duration
	// PWCWarmupWalks models the page-walk caches and paging-structure
	// TLB entries that a full (invept) invalidation destroys alongside
	// the leaf TLB: after a full flush this many walks pay the cold
	// (undiscounted) nested-walk price before PWCFactor applies again.
	// This is the mechanism behind §2.3.1's "destructive full
	// invalidation" penalty.
	PWCWarmupWalks int
}

// DefaultCostModel returns the model used by all experiments.
func DefaultCostModel() CostModel {
	return CostModel{
		PTERefLatency:    100, // DRAM under load
		PWCFactor:        0.25,
		GuestFaultCost:   1500,
		EPTFaultCost:     4000,
		CtxSwitchCost:    1800,
		PMICost:          2500,
		HintFaultCost:    2500,
		PTEOpCost:        15,
		ScanPTECost:      15,
		TLBFlushCost:     150,
		TLBFullFlushCost: 600,
		SampleHandleCost: 25,
		TranslateCost:    320, // ~a 1D walk in software
		PWCWarmupWalks:   4096,
	}
}

// Walk2DCost is the charged cost of a nested page-table walk with warm
// page-walk caches.
//
//demeter:hotpath
func (cm CostModel) Walk2DCost() sim.Duration {
	return sim.Duration(float64(pagetable.Walk2DRefs) * float64(cm.PTERefLatency) * cm.PWCFactor)
}

// Walk2DCostCold is the nested walk price with cold page-walk caches
// (right after an invept).
//
//demeter:hotpath
func (cm CostModel) Walk2DCostCold() sim.Duration {
	return sim.Duration(pagetable.Walk2DRefs) * cm.PTERefLatency
}

// Machine is the host.
type Machine struct {
	Eng  *sim.Engine
	Topo *mem.Topology // host physical memory
	Cost CostModel
	VMs  []*VM

	// HostLedger accrues hypervisor-side management CPU (H-TPP's scans
	// and migrations, balloon device work).
	HostLedger *sim.Ledger

	// Fault, when non-nil, injects failures at the machine's registered
	// fault points (migration copy faults, busy pages, latency spikes).
	// Nil means a fault-free run; all injection sites are nil-safe.
	Fault *fault.Injector

	// Obs, when non-nil, receives journal events from the machine's
	// control planes and publishes per-VM metrics at snapshot time. The
	// access fast path never touches it; see AttachObs.
	Obs *obs.Obs
}

// NewMachine builds a host over topo.
func NewMachine(eng *sim.Engine, topo *mem.Topology) *Machine {
	return &Machine{
		Eng:        eng,
		Topo:       topo,
		Cost:       DefaultCostModel(),
		HostLedger: sim.NewLedger(),
	}
}

// AttachObs connects an observability sink to the machine. Metrics are
// published exclusively through an OnSnapshot hook that copies the
// existing ad-hoc stats structs (VMStats, tlb.Stats, pebs.Stats, the
// ledgers) into registered instruments, so enabling obs adds zero work
// to the per-access path. Journal events come only from control-plane
// paths (migrations, flushes, PMIs). Call before creating VMs; VMs that
// already exist have their PEBS units wired retroactively.
func (m *Machine) AttachObs(o *obs.Obs) {
	m.Obs = o
	if o == nil {
		return
	}
	for _, vm := range m.VMs {
		if vm.PEBS != nil {
			vm.wirePEBSObs(vm.PEBS)
		}
	}
	o.Reg.OnSnapshot(m.publishMetrics)
}

// publishMetrics copies every live VM's ad-hoc stats into the registry.
// It runs only at snapshot time (end of an experiment, or an explicit
// dump), never on an access.
func (m *Machine) publishMetrics(r *obs.Registry) {
	for _, vm := range m.VMs {
		id := fmt.Sprintf("%d", vm.ID)
		st := &vm.stats
		r.Counter("vm_accesses", "vm", id).Set(st.Accesses)
		r.Counter("vm_writes", "vm", id).Set(st.Writes)
		r.Counter("vm_ept_faults", "vm", id).Set(st.EPTFaults)
		r.Counter("vm_guest_faults", "vm", id).Set(st.GuestFaults)
		r.Counter("vm_spills", "vm", id).Set(st.Spills)
		r.Counter("vm_fast_hits", "vm", id).Set(st.FastHits)
		r.Counter("vm_slow_hits", "vm", id).Set(st.SlowHits)
		r.Counter("migrate_busy", "vm", id).Set(st.MigrateBusy)
		r.Counter("migrate_rollbacks", "vm", id).Set(st.MigrateRollbacks)
		r.Counter("swap_rollbacks", "vm", id).Set(st.SwapRollbacks)
		r.Counter("latency_spikes", "vm", id).Set(st.LatencySpikes)

		ts := vm.TLB.Stats()
		r.Counter("tlb_lookups", "vm", id).Set(ts.Lookups)
		r.Counter("tlb_hits", "vm", id).Set(ts.Hits)
		r.Counter("tlb_misses", "vm", id).Set(ts.Misses)
		r.Counter("tlb_single_flushes", "vm", id).Set(ts.SingleFlushes)
		r.Counter("tlb_full_flushes", "vm", id).Set(ts.FullFlushes)
		r.Counter("tlb_evictions", "vm", id).Set(ts.Evictions)
		r.Counter("tlb_fills", "vm", id).Set(ts.Fills)

		if vm.PEBS != nil {
			ps := vm.PEBS.Stats()
			r.Counter("pebs_qualifying", "vm", id).Set(ps.Qualifying)
			r.Counter("pebs_samples", "vm", id).Set(ps.Samples)
			r.Counter("pebs_pmis", "vm", id).Set(ps.PMIs)
			r.Counter("pebs_dropped", "vm", id).Set(ps.Dropped)
			r.Counter("pebs_drains", "vm", id).Set(ps.Drains)
			r.Counter("pebs_widenings", "vm", id).Set(ps.Widenings)
			r.Counter("pebs_narrowings", "vm", id).Set(ps.Narrowings)
		}

		for _, comp := range vm.Ledger.Components() {
			r.Gauge("cpu_guest_seconds", "vm", id, "component", comp).
				Set(vm.Ledger.Total(comp).Seconds())
		}
	}
	for _, comp := range m.HostLedger.Components() {
		r.Gauge("cpu_host_seconds", "component", comp).
			Set(m.HostLedger.Total(comp).Seconds())
	}
}

// journal appends a control-plane event when obs is attached. A single
// nil check gates it, so obs-free runs pay one branch.
func (vm *VM) journal(t obs.EventType, note string, a1, a2 uint64) {
	m := vm.Machine
	if m == nil || m.Obs == nil {
		return
	}
	m.Obs.Journal.Append(obs.Event{
		At: m.Eng.Now(), Type: t, VM: int32(vm.ID), Note: note, Arg1: a1, Arg2: a2,
	})
}

// JournalEvent is the exported control-plane journaling hook for layers
// built outside the hypervisor (the delegation health monitor): same
// nil-safety and event shape as the internal helper. note must be a
// static string — the journal's zero-alloc contract.
func (vm *VM) JournalEvent(t obs.EventType, note string, a1, a2 uint64) {
	vm.journal(t, note, a1, a2)
}

// WirePEBS installs a sampling unit on the VM, inheriting the machine's
// fault injector and, when obs is attached, the journal (so PMIs leave
// records). Policies that build their own units call this instead of
// assigning vm.PEBS directly.
func (vm *VM) WirePEBS(u *pebs.Unit) {
	u.Fault = vm.Machine.Fault
	vm.wirePEBSObs(u)
	vm.PEBS = u
}

func (vm *VM) wirePEBSObs(u *pebs.Unit) {
	m := vm.Machine
	if m == nil || m.Obs == nil {
		return
	}
	u.Journal = m.Obs.Journal
	u.Now = m.Eng.Now
	u.Tag = int32(vm.ID)
}

// VMConfig sizes one guest.
type VMConfig struct {
	// VCPUs is the number of virtual CPUs (the paper's VMs have 4).
	VCPUs int
	// GuestFMEM/GuestSMEM are the guest NUMA node capacities in frames.
	// With Demeter ballooning both are typically the full VM size and
	// balloons carve out the provisioned share.
	GuestFMEM, GuestSMEM uint64
	// FMEMBacking/SMEMBacking are host node ids backing each guest node.
	FMEMBacking, SMEMBacking int
	// PEBS configures the guest's sampling unit; zero value disables it.
	PEBS pebs.Config
}

// VMStats counts per-VM events.
type VMStats struct {
	Accesses    uint64
	Writes      uint64
	EPTFaults   uint64
	GuestFaults uint64
	Spills      uint64 // EPT backings that landed on a non-matching tier
	FastHits    uint64 // accesses served from FMEM
	SlowHits    uint64 // accesses served from SMEM

	MigrateBusy      uint64 // migrations refused: page pinned or busy
	MigrateRollbacks uint64 // single-page migrations rolled back on copy fault
	SwapRollbacks    uint64 // pair swaps rolled back on copy fault
	LatencySpikes    uint64 // slow-tier accesses that hit an injected spike
}

// VM is one guest plus its host-side virtualization state.
type VM struct {
	ID      int
	Machine *Machine
	VCPUs   int

	Kernel *guestos.Kernel
	Proc   *guestos.Process

	// EPT maps gPFN → hPFN; populated lazily on EPT faults.
	EPT *pagetable.Table
	// TLB caches flattened gVA→hPA translations.
	TLB *tlb.TLB
	// PEBS is the guest's virtualized sampling unit (nil when disabled).
	PEBS *pebs.Unit

	// Ledger attributes guest-side TMM CPU time by component.
	Ledger *sim.Ledger

	// OnHintFault, when set, handles NUMA-hint minor faults: it runs on
	// the walk path when the accessed GPT entry is hint-marked, before
	// translation completes, and returns the time charged to the access.
	// The handler typically promotes the page (TPP-style access-triggered
	// migration) and clears the mark.
	OnHintFault func(gvpn uint64) sim.Duration

	backing   [2]int
	stall     sim.Duration
	warmWalks int  // walks since the last full flush, up to PWCWarmupWalks
	pml       *PML // page-modification logging, when enabled
	stats     VMStats
	batch     batchState // AccessBatch hit-run scratch (see batch.go)
}

// NewVM creates a guest on m. Guest node 0 is FMEM, node 1 SMEM.
func (m *Machine) NewVM(cfg VMConfig) (*VM, error) {
	if cfg.VCPUs <= 0 {
		return nil, fmt.Errorf("hypervisor: VM needs at least one vCPU")
	}
	if cfg.GuestFMEM == 0 || cfg.GuestSMEM == 0 {
		return nil, fmt.Errorf("hypervisor: guest nodes must be non-empty")
	}
	hostNodes := len(m.Topo.Nodes)
	if cfg.FMEMBacking >= hostNodes || cfg.SMEMBacking >= hostNodes {
		return nil, fmt.Errorf("hypervisor: backing node out of range")
	}
	guestTopo := mem.NewTopology(
		mem.NodeConfig{Spec: m.Topo.Nodes[cfg.FMEMBacking].Spec, Frames: cfg.GuestFMEM},
		mem.NodeConfig{Spec: m.Topo.Nodes[cfg.SMEMBacking].Spec, Frames: cfg.GuestSMEM},
	)
	vm := &VM{
		ID:      len(m.VMs),
		Machine: m,
		VCPUs:   cfg.VCPUs,
		Kernel:  guestos.NewKernel(guestTopo),
		EPT:     pagetable.New(),
		TLB:     tlb.NewDefault(),
		Ledger:  sim.NewLedger(),
		backing: [2]int{cfg.FMEMBacking, cfg.SMEMBacking},
	}
	vm.Proc = vm.Kernel.NewProcess(fmt.Sprintf("vm%d-workload", vm.ID))
	if cfg.PEBS.SamplePeriod != 0 {
		u, err := pebs.NewUnit(cfg.PEBS)
		if err != nil {
			return nil, err
		}
		vm.WirePEBS(u)
	}
	m.VMs = append(m.VMs, vm)
	return vm, nil
}

// Stats returns a copy of the VM counters.
func (vm *VM) Stats() VMStats { return vm.stats }

// Stall adds management work that steals guest vCPU time; the executor
// folds it into workload elapsed time.
func (vm *VM) Stall(d sim.Duration) { vm.stall += d }

// TakeStall drains the pending stall.
func (vm *VM) TakeStall() sim.Duration {
	d := vm.stall
	vm.stall = 0
	return d
}

// Ledger component names. Every design charges its management CPU to
// one of them: the breakdown Figures 2 and 7 aggregate.
const (
	CompTrack    = "track"
	CompClassify = "classify"
	CompMigrate  = "migrate"
)

// ChargeGuest records guest-side management CPU: it is accounted to the
// component ledger and stalls the VM (guest kthreads run on vCPUs).
func (vm *VM) ChargeGuest(component string, d sim.Duration) {
	vm.Ledger.Charge(component, d)
	vm.Stall(d)
}

// ChargeHost records hypervisor-side management CPU. It burns a host
// core but does not directly stall the guest.
func (vm *VM) ChargeHost(component string, d sim.Duration) {
	vm.Machine.HostLedger.Charge(component, d)
}

// ensureBacked guarantees gpfn has a host frame, allocating on the tier
// backing its guest node. When that pool is exhausted the allocation
// spills to any other pool (overcommit), recorded in stats.
//
//demeter:hotpath
func (vm *VM) ensureBacked(gpfn uint64) (*pagetable.Entry, bool) {
	if e := vm.EPT.Lookup(gpfn); e != nil {
		return e, false
	}
	guestNode := vm.Kernel.NodeOfGPFN(mem.Frame(gpfn))
	want := vm.backing[guestNode]
	hostNode := vm.Machine.Topo.Nodes[want]
	f, ok := hostNode.Alloc()
	if !ok {
		for _, n := range vm.Machine.Topo.Nodes {
			if n.ID == want {
				continue
			}
			if f, ok = n.Alloc(); ok {
				vm.stats.Spills++
				break
			}
		}
	}
	if !ok {
		panic(fmt.Sprintf("hypervisor: host out of memory backing vm%d gpfn %d", vm.ID, gpfn))
	}
	vm.stats.EPTFaults++
	return vm.EPT.Map(gpfn, uint64(f)), true
}

// Access executes one guest memory access at byte address gva and returns
// its latency. This is the simulator's hot path: TLB hit costs one tier
// load; a miss pays the nested walk, sets GPT/EPT A/D bits (the signal
// A-bit trackers consume) and refills the TLB; first touches take guest
// and EPT faults.
//
//demeter:hotpath
func (vm *VM) Access(gva uint64, write bool) sim.Duration {
	vm.stats.Accesses++
	if write {
		vm.stats.Writes++
	}
	gvpn := gva >> guestos.PageShift

	if hpfn, ok := vm.TLB.Lookup(gvpn); ok {
		loaded, kind := vm.Machine.Topo.Tier(mem.Frame(hpfn))
		if kind == mem.TierDRAM {
			// DRAM hit: no spike draw (DRAM never spikes), no fault-stream
			// consumption — identical accounting to the general path.
			vm.stats.FastHits++
			if vm.PEBS != nil {
				vm.PEBS.Record(gvpn, loaded, true)
			}
			return loaded
		}
		vm.stats.SlowHits++
		lat := loaded + vm.slowTierSpike(loaded)
		if vm.PEBS != nil {
			vm.PEBS.Record(gvpn, lat, false)
		}
		return lat
	}
	return vm.accessMiss(gva, gvpn, write)
}

// accessMiss is the TLB-miss continuation of Access: walk, fault handling,
// A/D maintenance, TLB refill. Kept out of Access so the hit path stays
// small enough to inline.
//
//demeter:hotpath
func (vm *VM) accessMiss(gva, gvpn uint64, write bool) sim.Duration {
	cm := &vm.Machine.Cost
	var cost sim.Duration
	ge := vm.Proc.GPT.Lookup(gvpn)
	if ge == nil {
		if _, _, ok := vm.Proc.HandleFault(gvpn); !ok {
			panic(fmt.Sprintf("hypervisor: vm%d guest OOM at gva %#x", vm.ID, gva))
		}
		vm.stats.GuestFaults++
		cost += cm.GuestFaultCost
		ge = vm.Proc.GPT.Lookup(gvpn)
	}
	if ge.Hinted() && vm.OnHintFault != nil {
		cost += vm.OnHintFault(gvpn)
	}
	he, eptFault := vm.ensureBacked(ge.Value())
	if eptFault {
		cost += cm.EPTFaultCost
	}
	if vm.warmWalks < cm.PWCWarmupWalks {
		vm.warmWalks++
		cost += cm.Walk2DCostCold()
	} else {
		cost += cm.Walk2DCost()
	}
	ge.MarkAccessed()
	he.MarkAccessed()
	if write {
		ge.MarkDirty()
		if !he.Dirty() {
			he.MarkDirty()
			if vm.pml != nil {
				// First dirtying of this EPT entry: PML logs the gPA and
				// may force a buffer-full VM exit.
				cost += vm.pml.log(ge.Value())
			}
		}
	}
	hpfn := he.Value()
	vm.TLB.Insert(gvpn, hpfn)
	loaded, kind := vm.Machine.Topo.Tier(mem.Frame(hpfn))
	lat := loaded
	if kind == mem.TierDRAM {
		vm.stats.FastHits++
	} else {
		vm.stats.SlowHits++
		lat += vm.slowTierSpike(loaded)
	}
	cost += lat
	if vm.PEBS != nil {
		vm.PEBS.Record(gvpn, lat, kind == mem.TierDRAM)
	}
	return cost
}

// slowTierSpike returns the extra latency of a transient slow-tier
// congestion spike, when one is injected. Callers guarantee the access
// landed on a non-DRAM tier (DRAM never spikes and must not consume a
// fault-stream draw).
//
//demeter:hotpath
func (vm *VM) slowTierSpike(loaded sim.Duration) sim.Duration {
	fired, magn := vm.Machine.Fault.FireMagnitude(mem.FaultSlowTierSpike)
	if !fired {
		return 0
	}
	vm.stats.LatencySpikes++
	return sim.Duration(magn * float64(loaded))
}

// ResidentTier reports which tier currently backs gvpn: fast, slow, or
// not-mapped. Classifiers and tests use it as placement ground truth.
func (vm *VM) ResidentTier(gvpn uint64) (fast, mapped bool) {
	ge := vm.Proc.GPT.Lookup(gvpn)
	if ge == nil {
		return false, false
	}
	he := vm.EPT.Lookup(ge.Value())
	if he == nil {
		return false, false
	}
	return vm.Machine.Topo.SpecOf(mem.Frame(he.Value())).Kind == mem.TierDRAM, true
}

// FlushSingle issues one single-address invalidation on the VM's TLB and
// returns its instruction cost. Only guest software can use this: it
// requires the gVA.
func (vm *VM) FlushSingle(gvpn uint64) sim.Duration {
	vm.TLB.FlushSingle(gvpn)
	return vm.Machine.Cost.TLBFlushCost
}

// FlushFull issues a full invalidation (invept) and returns its
// instruction cost. The indirect costs — every cached translation repays
// a nested walk, and the page-walk caches must re-warm at the cold walk
// price — emerge from subsequent misses.
func (vm *VM) FlushFull() sim.Duration {
	vm.TLB.FlushAll()
	vm.warmWalks = 0
	vm.journal(obs.EvTLBFullFlush, "", 0, 0)
	return vm.Machine.Cost.TLBFullFlushCost
}

// hostSpecOfGPFN returns the tier spec backing a guest frame, for copy
// cost computation. The frame must be EPT-mapped.
func (vm *VM) hostSpecOfGPFN(gpfn uint64) mem.TierSpec {
	he := vm.EPT.Lookup(gpfn)
	if he == nil {
		panic(fmt.Sprintf("hypervisor: gpfn %d not backed", gpfn))
	}
	return vm.Machine.Topo.SpecOf(mem.Frame(he.Value()))
}

// SwapGuestPages is Demeter's balanced relocation step (§3.2.3) for one
// page pair: hotGVPN (backed by SMEM) and coldGVPN (backed by FMEM)
// exchange their guest frames — unmap both, swap contents, remap — with
// no temporary page and no allocation. Returns the charged cost,
// including two single-address invalidations and both copies.
//
// The step is transactional: all GPT mutation happens at commit, so a
// copy fault rolls back by remapping the originals. The flushes have
// already landed by then, which is safe — the next access to either page
// just repays a walk to the unchanged translation.
func (vm *VM) SwapGuestPages(hotGVPN, coldGVPN uint64) (sim.Duration, error) {
	gpt := vm.Proc.GPT
	hotE, coldE := gpt.Lookup(hotGVPN), gpt.Lookup(coldGVPN)
	if hotE == nil || coldE == nil {
		return 0, fmt.Errorf("%w: swap pair (%#x,%#x)", ErrNotMapped, hotGVPN, coldGVPN)
	}
	hotGPFN, coldGPFN := hotE.Value(), coldE.Value()
	cm := &vm.Machine.Cost
	if vm.Machine.Fault.Fire(FaultMigrateBusy) {
		vm.stats.MigrateBusy++
		return cm.PTEOpCost, ErrPageBusy
	}
	hotSpec := vm.hostSpecOfGPFN(hotGPFN)
	coldSpec := vm.hostSpecOfGPFN(coldGPFN)

	vm.journal(obs.EvMigrateBegin, "swap", hotGVPN, coldGVPN)
	var cost sim.Duration
	// Unmap both, flush, swap contents directly, remap crossed.
	cost += 2 * cm.PTEOpCost // two unmaps
	cost += vm.FlushSingle(hotGVPN)
	cost += vm.FlushSingle(coldGVPN)
	cost += mem.CopyCost(hotSpec, coldSpec, mem.PageSize)
	if vm.Machine.Fault.Fire(FaultMigrateCopy) {
		cost += 2 * cm.PTEOpCost // remap both originals
		vm.stats.SwapRollbacks++
		vm.journal(obs.EvMigrateRollback, "swap", hotGVPN, coldGVPN)
		return cost, ErrCopyFault
	}
	cost += mem.CopyCost(coldSpec, hotSpec, mem.PageSize)
	cost += 2 * cm.PTEOpCost // two maps
	gpt.Remap(hotGVPN, coldGPFN)
	gpt.Remap(coldGVPN, hotGPFN)
	vm.journal(obs.EvMigrateCommit, "swap", hotGVPN, coldGVPN)
	return cost, nil
}

// MigrateGuestPage moves gvpn's backing to a freshly allocated guest
// frame on targetGuestNode (the sequential demote-then-promote primitive
// TPP-style designs use). The old guest frame returns to its node's free
// list, keeping its EPT backing for reuse. Returns the charged cost and
// nil on success, or one of the sentinel errors: ErrNotMapped and
// ErrAlreadyPlaced are permanent for this candidate; ErrNoFrame,
// ErrPageBusy and ErrCopyFault are transient and worth retrying.
//
// Like SwapGuestPages the move is transactional: the GPT keeps pointing
// at the source frame until the copy succeeds, so a copy fault only costs
// the work already done — no mapping is lost.
func (vm *VM) MigrateGuestPage(gvpn uint64, targetGuestNode int) (sim.Duration, error) {
	ge := vm.Proc.GPT.Lookup(gvpn)
	if ge == nil {
		return 0, ErrNotMapped
	}
	oldGPFN := ge.Value()
	if vm.Kernel.NodeOfGPFN(mem.Frame(oldGPFN)) == targetGuestNode {
		return 0, ErrAlreadyPlaced
	}
	cm := &vm.Machine.Cost
	if vm.Machine.Fault.Fire(FaultMigrateBusy) {
		vm.stats.MigrateBusy++
		return cm.PTEOpCost, ErrPageBusy
	}
	newGPFN, ok := vm.Kernel.AllocPageOn(targetGuestNode)
	if !ok {
		return 0, ErrNoFrame
	}
	vm.journal(obs.EvMigrateBegin, "move", gvpn, uint64(targetGuestNode))
	var cost sim.Duration
	if _, faulted := vm.ensureBacked(uint64(newGPFN)); faulted {
		cost += cm.EPTFaultCost
	}
	srcSpec := vm.hostSpecOfGPFN(oldGPFN)
	dstSpec := vm.hostSpecOfGPFN(uint64(newGPFN))
	cost += cm.PTEOpCost // unmap source
	cost += vm.FlushSingle(gvpn)
	if vm.Machine.Fault.Fire(FaultMigrateCopy) {
		// Copy faulted partway: return the fresh frame, keep the original
		// mapping. Charge roughly half the copy for the partial transfer.
		cost += mem.CopyCost(srcSpec, dstSpec, mem.PageSize) / 2
		cost += cm.PTEOpCost // restore source PTE
		vm.Kernel.FreePage(newGPFN)
		vm.stats.MigrateRollbacks++
		vm.journal(obs.EvMigrateRollback, "move", gvpn, uint64(targetGuestNode))
		return cost, ErrCopyFault
	}
	cost += mem.CopyCost(srcSpec, dstSpec, mem.PageSize)
	cost += cm.PTEOpCost // map destination
	vm.Proc.GPT.Remap(gvpn, uint64(newGPFN))
	vm.Kernel.FreePage(mem.Frame(oldGPFN))
	vm.journal(obs.EvMigrateCommit, "move", gvpn, uint64(targetGuestNode))
	return cost, nil
}

// HostMigrate changes the host backing of gpfn to targetHostNode: the
// hypervisor-based (H-TPP) migration path. Without the gVA it must issue
// a full EPT invalidation. Returns cost and success.
func (vm *VM) HostMigrate(gpfn uint64, targetHostNode int) (sim.Duration, bool) {
	he := vm.EPT.Lookup(gpfn)
	if he == nil {
		return 0, false
	}
	oldFrame := mem.Frame(he.Value())
	oldNode := vm.Machine.Topo.NodeOf(oldFrame)
	if oldNode.ID == targetHostNode {
		return 0, false
	}
	target := vm.Machine.Topo.Nodes[targetHostNode]
	newFrame, ok := target.Alloc()
	if !ok {
		return 0, false
	}
	cm := &vm.Machine.Cost
	vm.journal(obs.EvMigrateBegin, "host", gpfn, uint64(targetHostNode))
	var cost sim.Duration
	cost += 2 * cm.PTEOpCost
	cost += mem.CopyCost(oldNode.Spec, target.Spec, mem.PageSize)
	cost += vm.FlushFull()
	vm.EPT.Remap(gpfn, uint64(newFrame))
	oldNode.Free(oldFrame)
	vm.journal(obs.EvMigrateCommit, "host", gpfn, uint64(targetHostNode))
	return cost, true
}

// ReleaseGuestFrames is the host half of balloon inflation: the guest
// handed these frames to a balloon, so their host backing (if any) is
// unmapped and returned to the host pools.
func (vm *VM) ReleaseGuestFrames(frames []mem.Frame) (released int) {
	for _, gpfn := range frames {
		if vm.EPT.Lookup(uint64(gpfn)) == nil {
			continue
		}
		hpfn, _ := vm.EPT.Unmap(uint64(gpfn))
		vm.Machine.Topo.NodeOf(mem.Frame(hpfn)).Free(mem.Frame(hpfn))
		released++
	}
	if released > 0 {
		// EPT mappings changed; correctness requires invalidation.
		vm.FlushFull()
	}
	return released
}

// Destroy tears the VM down: every EPT-backed host frame returns to its
// pool and the VM is detached from the machine. Using the VM afterwards
// is a bug; Destroy panics when called twice.
func (vm *VM) Destroy() {
	if vm.Machine == nil {
		panic(fmt.Sprintf("hypervisor: vm%d destroyed twice", vm.ID))
	}
	vm.EPT.Scan(func(_ uint64, e *pagetable.Entry) bool {
		f := mem.Frame(e.Value())
		vm.Machine.Topo.NodeOf(f).Free(f)
		return true
	})
	vm.EPT = pagetable.New()
	for i, v := range vm.Machine.VMs {
		if v == vm {
			vm.Machine.VMs = append(vm.Machine.VMs[:i], vm.Machine.VMs[i+1:]...)
			break
		}
	}
	vm.Machine = nil
}

// GuestFreeFrames reports the guest's free frame counts per node
// (telemetry for the QoS stats queue).
func (vm *VM) GuestFreeFrames() (fmem, smem uint64) {
	return vm.Kernel.Topo.Nodes[0].FreeFrames(), vm.Kernel.Topo.Nodes[1].FreeFrames()
}

// AuditFrames verifies host frame conservation: every host frame is
// either on its node's free list or EPT-mapped by exactly one VM. Any
// violation — a leaked frame, a double mapping — returns a descriptive
// error. Chaos runs call this after every experiment.
func (m *Machine) AuditFrames() error {
	owner := make(map[uint64]int)
	mapped := make(map[int]uint64)
	for _, vm := range m.VMs {
		var dup error
		vm.EPT.Scan(func(_ uint64, e *pagetable.Entry) bool {
			hpfn := e.Value()
			if prev, seen := owner[hpfn]; seen {
				dup = fmt.Errorf("hypervisor: host frame %d EPT-mapped by vm%d and vm%d", hpfn, prev, vm.ID)
				return false
			}
			owner[hpfn] = vm.ID
			mapped[m.Topo.NodeOf(mem.Frame(hpfn)).ID]++
			return true
		})
		if dup != nil {
			return dup
		}
	}
	return m.Topo.Audit(func(nodeID int) (uint64, uint64) {
		return mapped[nodeID], 0
	})
}

// AuditGuestFrames verifies the guest kernel's frame conservation (see
// guestos.Kernel.Audit).
func (vm *VM) AuditGuestFrames() error { return vm.Kernel.Audit() }

// AuditMappings verifies GPT/EPT/TLB consistency: every valid TLB entry
// whose gVA is still GPT-mapped must agree with the current GPT∘EPT
// composition. (A cached entry for a since-unmapped gVA is tolerated —
// unmap without flush matches real munmap laziness — but a mapped gVA
// must never translate through the TLB to the wrong frame, which is
// exactly what a botched migration rollback would produce.)
func (vm *VM) AuditMappings() error {
	var err error
	vm.TLB.Scan(func(gvpn, hpfn uint64) bool {
		ge := vm.Proc.GPT.Lookup(gvpn)
		if ge == nil {
			return true
		}
		he := vm.EPT.Lookup(ge.Value())
		if he == nil {
			err = fmt.Errorf("hypervisor: vm%d TLB caches gvpn %#x but gpfn %d has no EPT backing",
				vm.ID, gvpn, ge.Value())
			return false
		}
		if he.Value() != hpfn {
			err = fmt.Errorf("hypervisor: vm%d stale TLB entry: gvpn %#x → hpfn %d, page tables say %d",
				vm.ID, gvpn, hpfn, he.Value())
			return false
		}
		return true
	})
	return err
}
