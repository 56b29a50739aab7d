// Package demeter is a reproduction of "Demeter: A Scalable and Elastic
// Tiered Memory Solution for Virtualized Cloud via Guest Delegation"
// (SOSP 2025) as a deterministic discrete-event simulation.
//
// The paper's system is a Linux kernel module plus Cloud Hypervisor
// patches that delegate tiered memory management (TMM) to guest VMs —
// classifying hotness over guest-virtual-address ranges fed by
// EPT-friendly PEBS samples — while the hypervisor handles only elastic
// provisioning through a per-NUMA-node "double balloon". Reproducing that
// requires PEBS hardware, nested paging and PMEM none of which a Go
// process can reach, so this repository builds the closest synthetic
// equivalent: a simulated virtualized machine (page tables with A/D bits,
// TLB with single/full invalidation, PEBS sampling, virtio transports,
// tiered NUMA memory) on which Demeter and the baselines it is evaluated
// against (TPP, hypervisor-TPP, Memtis, Nomad) are implemented in full.
//
// Layout:
//
//   - internal/core — the paper's contribution: range-based classifier,
//     bounded sample channel (the paper's lock-free channel, represented
//     by its constant per-sample cost), balanced relocation, the Demeter
//     policy.
//   - internal/{sim,mem,pagetable,tlb,pebs,virtio,guestos,hypervisor,
//     balloon,engine,workload} — the substrates.
//   - internal/tmm — baseline TMM designs.
//   - internal/experiments — one runner per table/figure of the paper.
//   - cmd/demeter-sim — CLI for the experiment harness.
//   - examples — runnable walkthroughs of the public pieces.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package demeter
