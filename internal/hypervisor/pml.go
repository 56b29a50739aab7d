package hypervisor

import (
	"demeter/internal/sim"
)

// PML models Intel Page Modification Logging (§7.3): when enabled for a
// VM, the CPU appends the gPA of every page whose EPT dirty bit it sets to
// a 512-entry buffer; when the buffer fills, the VM exits so the
// hypervisor can drain it.
//
// The paper's analysis (and vTMM's experience) identifies two structural
// problems the model reproduces:
//
//   - Fixed-frequency exits: one VM exit per 512 modifications, with no
//     way to subsample. Write-heavy phases stall the guest on every
//     buffer fill — unlike PEBS, whose period and buffer are programmable.
//   - Global scope: the enable bit in the VMCS covers the whole address
//     space; there is no range filtering, so every dirtied page logs
//     regardless of relevance.
type PML struct {
	// OnFull receives the drained buffer at each exit.
	OnFull func(gpfns []uint64)

	buffer []uint64
	stats  PMLStats
}

// PMLStats counts logging activity.
type PMLStats struct {
	Logged uint64 // dirty transitions recorded
	Exits  uint64 // buffer-full VM exits
}

const (
	// pmlEntries is the architectural buffer size.
	pmlEntries = 512
	// pmlExitCost is the VM-exit + drain handling cost, charged as a
	// guest stall because the vCPU is halted during the exit.
	pmlExitCost = 4 * sim.Microsecond
)

// NewPML returns a PML unit. The log buffer is preallocated at full
// capacity so steady-state appends never grow it.
func NewPML() *PML {
	return &PML{buffer: make([]uint64, 0, pmlEntries)}
}

// Stats returns a copy of the counters.
func (p *PML) Stats() PMLStats { return p.stats }

// log records one dirty transition, returning the stall incurred (nonzero
// only on a buffer-full exit).
func (p *PML) log(gpfn uint64) sim.Duration {
	//lint:allow hotpath buffer is preallocated at pmlEntries capacity in NewPML and swapped before it can grow
	p.buffer = append(p.buffer, gpfn)
	p.stats.Logged++
	if len(p.buffer) < pmlEntries {
		return 0
	}
	p.stats.Exits++
	buf := p.buffer
	//lint:allow hotpath fresh buffer swap happens on a buffer-full VM exit, amortized over pmlEntries logs
	p.buffer = make([]uint64, 0, pmlEntries)
	if p.OnFull != nil {
		p.OnFull(buf)
	}
	return pmlExitCost
}

// EnablePML attaches a PML unit to the VM; every first dirtying of an
// EPT entry logs and may force a VM exit.
func (vm *VM) EnablePML(p *PML) { vm.pml = p }

// DisablePML detaches page-modification logging.
func (vm *VM) DisablePML() { vm.pml = nil }
