package experiments

import (
	"fmt"

	"demeter/internal/balloon"
	"demeter/internal/hypervisor"
	"demeter/internal/sim"
	"demeter/internal/stats"
	"demeter/internal/workload"
)

// provisionScheme describes how a VM's tier composition is established.
type provisionScheme struct {
	name   string
	design string // guest TMM attached after provisioning
	// setup provisions one VM and must call done() when settled.
	setup func(eng *sim.Engine, vm *hypervisor.VM, s Scale, done func())
	// fullCapacityNodes: guest nodes sized at 100% of VM memory with
	// balloons carving the provision (the elastic configurations).
	fullCapacityNodes bool
}

func staticSetup(eng *sim.Engine, _ *hypervisor.VM, _ Scale, done func()) { eng.After(0, done) }

func virtioSetup(eng *sim.Engine, vm *hypervisor.VM, s Scale, done func()) {
	// The host wants the guest shrunk from 2×total capacity to the
	// provisioned total; the legacy balloon cannot say which tier.
	b := balloon.NewLegacy(eng, vm)
	total := s.VMFMEM + s.VMSMEM
	b.Inflate(total, func(uint64) { done() })
}

func demeterSetup(eng *sim.Engine, vm *hypervisor.VM, s Scale, done func()) {
	d := balloon.NewDouble(eng, vm)
	d.SetProvision(s.VMFMEM, s.VMSMEM, done)
}

// Figure6 reproduces §5.2.1: nine VMs run GUPS under four provisioning
// schemes. Paper shape: the Demeter balloon matches static allocation
// while the tier-unaware VirtIO balloon under-provisions FMEM so badly
// that even with guest TMM it loses ~40% (Demeter balloon delivers +68%
// over VirtIO+TPP).
func Figure6(s Scale) string {
	schemes := []provisionScheme{
		{name: "static+tpp", design: "tpp", setup: staticSetup},
		{name: "virtio-balloon+tpp", design: "tpp", setup: virtioSetup, fullCapacityNodes: true},
		{name: "demeter-balloon+tpp", design: "tpp", setup: demeterSetup, fullCapacityNodes: true},
		{name: "demeter-balloon+demeter", design: "demeter", setup: demeterSetup, fullCapacityNodes: true},
	}

	thpts := runIndexed(len(schemes), func(i int) float64 {
		return runProvisioned(s, schemes[i])
	})

	tb := stats.NewTable("Figure 6: average GUPS throughput by provisioning technique (9 VMs)",
		"Provisioning", "Throughput (ops/s)", "vs static")
	staticThpt := thpts[0] // static+tpp is the first scheme
	report := ""
	for i, scheme := range schemes {
		tb.AddRow(scheme.name, fmt.Sprintf("%.3g", thpts[i]), fmt.Sprintf("%.2fx", thpts[i]/staticThpt))
	}
	report += tb.String()
	report += "\nPaper shape: Demeter balloon ≈ static; VirtIO balloon (+TPP) far\n" +
		"behind (Demeter balloon +68%) because inflation drains FMEM first.\n"
	return report
}

// runProvisioned builds the cluster, settles provisioning, then runs GUPS
// and returns aggregate throughput.
func runProvisioned(s Scale, scheme provisionScheme) float64 {
	c := provisioned(s, scheme)
	ops, wall := c.totals()
	s.finish(c, "figure6-"+scheme.name)
	return float64(ops) / wall.Seconds()
}

// provisioned builds the cluster, settles provisioning and runs GUPS to
// the end under scheme's design, leaving the cluster ready to audit.
func provisioned(s Scale, scheme provisionScheme) *cluster {
	n := s.VMs
	c := s.newCluster("pmem", s.VMFMEM*uint64(n), s.VMSMEM*uint64(n))
	pending := n
	for i := 0; i < n; i++ {
		guestFMEM, guestSMEM := s.VMFMEM, s.VMSMEM
		if scheme.fullCapacityNodes {
			total := s.VMFMEM + s.VMSMEM
			guestFMEM, guestSMEM = total, total
		}
		scheme.setup(c.eng, c.newVM(4, guestFMEM, guestSMEM), s, func() { pending-- })
	}
	// Settle ballooning before workloads start (boot-time resizing).
	for pending > 0 {
		if !c.eng.Step() {
			panic("experiments: provisioning never settled")
		}
	}

	// Each VM runs its own full GUPS instance (16 GiB VM, ~14 GiB table
	// in the paper).
	for i, vm := range c.m.VMs {
		c.attach(vm, workload.Must(workload.NewGUPS(s.GUPSFootprint, s.GUPSOps, uint64(i)+1)), s.NewPolicy(scheme.design))
	}
	if !c.run(s.Horizon) {
		panic(fmt.Sprintf("experiments: figure6 %s did not finish", scheme.name))
	}
	c.detach()
	return c
}
