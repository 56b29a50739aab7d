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

// Cluster is one simulated host: a private engine, a machine with DRAM
// (host node 0) and one slow tier (host node 1), and a private obs.Obs.
// Every leaf run of the experiments builds one, and so do the examples
// and the tracer. Callers boot VMs, settle provisioning and attach
// designs in their own order: simultaneous events fire in scheduling
// order, so each caller's event order is part of its output and the
// helpers impose none. A caller that needs its own step loop drives Eng
// and reads Executors directly instead of calling Run.
type Cluster struct {
	Eng       *sim.Engine
	Machine   *hypervisor.Machine
	Obs       *obs.Obs
	Executors []*engine.Executor
	pols      []Policy
}

// NewCluster builds a host whose slow tier is tier ("pmem", "cxl", or ""
// for pmem) with the machine's default costs. The obs attaches before
// any VM exists, so every layer's publish hooks register; its journal
// only counts events.
func NewCluster(tier string, hostFMEM, hostSMEM uint64) (*Cluster, error) {
	topology, err := mem.PaperTopology(tier)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	eng := sim.NewEngine()
	c := &Cluster{Eng: eng, Machine: hypervisor.NewMachine(eng, topology(hostFMEM, hostSMEM)), Obs: obs.NewCounting(0)}
	c.Machine.AttachObs(c.Obs)
	return c, nil
}

// newCluster builds a leaf run's host with s's scan cost. Its journal
// keeps events when s.Events is set; otherwise it only counts.
func (s Scale) newCluster(tier string, hostFMEM, hostSMEM uint64) *Cluster {
	c := must(NewCluster(tier, hostFMEM, hostSMEM))
	if s.Events {
		// No VM exists yet, so every layer will journal into the ring.
		c.Obs.Journal = obs.NewJournal(0)
	}
	if s.ScanPTECost > 0 {
		c.Machine.Cost.ScanPTECost = s.ScanPTECost
	}
	return c
}

// NewVM boots a guest whose FMEM node is backed by host node 0 and whose
// SMEM node by host node 1.
func (c *Cluster) NewVM(vcpus int, guestFMEM, guestSMEM uint64) (*hypervisor.VM, error) {
	return c.Machine.NewVM(hypervisor.VMConfig{
		VCPUs: vcpus, GuestFMEM: guestFMEM, GuestSMEM: guestSMEM,
		FMEMBacking: 0, SMEMBacking: 1,
	})
}

// Attach wires wl to vm, then attaches pol. The executor runs the
// workload's Setup, and that must precede the attach: Demeter's range
// tree snapshots the process VMAs when it attaches. A design that
// refuses to attach leaves the cluster without the executor.
func (c *Cluster) Attach(vm *hypervisor.VM, wl workload.Workload, pol Policy) (*engine.Executor, error) {
	x := engine.NewExecutor(c.Eng, vm, wl)
	if err := pol.Attach(c.Eng, vm); err != nil {
		return nil, err
	}
	c.Executors = append(c.Executors, x)
	c.pols = append(c.pols, pol)
	return x, nil
}

// Run starts every executor and reports whether all finished within
// horizon.
func (c *Cluster) Run(horizon sim.Duration) bool {
	return engine.RunAll(c.Eng, horizon, c.Executors...)
}

// Detach detaches every attached design.
func (c *Cluster) Detach() {
	for _, p := range c.pols {
		p.Detach()
	}
}

// Totals returns the operations all executors completed and the latest
// finish time.
func (c *Cluster) Totals() (ops uint64, wall sim.Time) {
	for _, x := range c.Executors {
		ops += x.OpsDone()
		if x.FinishedAt() > wall {
			wall = x.FinishedAt()
		}
	}
	return ops, wall
}

// Audit checks host frame conservation, per-VM guest frame conservation
// and TLB/GPT/EPT agreement. A violation is a simulator bug, not a
// result.
func (c *Cluster) Audit() error {
	if err := c.Machine.AuditFrames(); err != nil {
		return fmt.Errorf("host frame audit failed: %w", err)
	}
	for i, vm := range c.Machine.VMs {
		if err := vm.AuditGuestFrames(); err != nil {
			return fmt.Errorf("VM%d guest frame audit failed: %w", i, err)
		}
		if err := vm.AuditMappings(); err != nil {
			return fmt.Errorf("VM%d mapping audit failed: %w", i, err)
		}
	}
	return nil
}

// finish runs the end-of-run audit, panicking on a violation, then
// flushes the run's observability into the experiment's accumulator.
func (s Scale) finish(c *Cluster, label string) {
	if err := c.Audit(); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	s.collect(label, c.Obs.Reg.Snapshot(), c.Obs.Journal.Events())
}

// must panics with err: a leaf run's wiring mistake is a simulator bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
