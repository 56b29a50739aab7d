package experiments

import (
	"fmt"

	"demeter/internal/engine"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/obs"
	"demeter/internal/sim"
	"demeter/internal/workload"
)

// cluster is one leaf run's simulated host: a private engine, a machine
// with DRAM (host node 0) and one slow tier (host node 1), and a private
// obs.Obs. Runners boot VMs, settle provisioning and attach designs in
// their own order: simultaneous events fire in scheduling order, so each
// runner's event order is part of its report and the helpers impose none.
type cluster struct {
	eng  *sim.Engine
	m    *hypervisor.Machine
	o    *obs.Obs
	xs   []*engine.Executor
	pols []Policy
}

// newCluster builds the host with s's scan cost. The obs attaches before
// any VM exists, so every layer's publish hooks register. Its journal
// keeps events only under SetEventCapture; otherwise it only counts.
func (s Scale) newCluster(tier string, hostFMEM, hostSMEM uint64) *cluster {
	topology, err := mem.PaperTopology(tier)
	if err != nil {
		panic(fmt.Sprintf("experiments: unknown tier %q", tier))
	}
	eng := sim.NewEngine()
	m := hypervisor.NewMachine(eng, topology(hostFMEM, hostSMEM))
	if s.ScanPTECost > 0 {
		m.Cost.ScanPTECost = s.ScanPTECost
	}
	o := obs.NewCounting(0)
	if eventCapture() {
		o = obs.New(0)
	}
	m.AttachObs(o)
	return &cluster{eng: eng, m: m, o: o}
}

// newVM boots a guest whose FMEM node is backed by host node 0 and whose
// SMEM node by host node 1.
func (c *cluster) newVM(vcpus int, guestFMEM, guestSMEM uint64) *hypervisor.VM {
	vm, err := c.m.NewVM(hypervisor.VMConfig{
		VCPUs: vcpus, GuestFMEM: guestFMEM, GuestSMEM: guestSMEM,
		FMEMBacking: 0, SMEMBacking: 1,
	})
	if err != nil {
		panic(err)
	}
	return vm
}

// attach wires wl to vm, then attaches pol. The executor runs the
// workload's Setup, and that must precede the attach: Demeter's range
// tree snapshots the process VMAs when it attaches.
func (c *cluster) attach(vm *hypervisor.VM, wl workload.Workload, pol Policy) *engine.Executor {
	x := engine.NewExecutor(c.eng, vm, wl)
	pol.Attach(c.eng, vm)
	c.xs = append(c.xs, x)
	c.pols = append(c.pols, pol)
	return x
}

// run starts every executor and reports whether all finished within
// horizon.
func (c *cluster) run(horizon sim.Duration) bool {
	return engine.RunAll(c.eng, horizon, c.xs...)
}

// detach detaches every attached design.
func (c *cluster) detach() {
	for _, p := range c.pols {
		p.Detach()
	}
}

// totals returns the operations all executors completed and the latest
// finish time.
func (c *cluster) totals() (ops uint64, wall sim.Time) {
	for _, x := range c.xs {
		ops += x.OpsDone()
		if x.FinishedAt() > wall {
			wall = x.FinishedAt()
		}
	}
	return ops, wall
}

// finish runs the end-of-run audit, then flushes the run's observability.
// The audit checks host frame conservation, per-VM guest frame
// conservation and TLB/GPT/EPT agreement, and panics on a violation: a
// leak here is a simulator bug, not a result.
func (s Scale) finish(c *cluster, label string) {
	if err := machineAuditErr(c.m); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	s.finishObs(label, c.o)
}

// machineAuditErr is finish's audit in error-returning form, used by the
// chaos runner, which reports violations instead of panicking.
func machineAuditErr(m *hypervisor.Machine) error {
	if err := m.AuditFrames(); err != nil {
		return fmt.Errorf("host frame audit failed: %w", err)
	}
	for i, vm := range m.VMs {
		if err := vm.AuditGuestFrames(); err != nil {
			return fmt.Errorf("VM%d guest frame audit failed: %w", i, err)
		}
		if err := vm.AuditMappings(); err != nil {
			return fmt.Errorf("VM%d mapping audit failed: %w", i, err)
		}
	}
	return nil
}
