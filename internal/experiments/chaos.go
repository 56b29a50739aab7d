package experiments

import (
	"fmt"
	"math"
	"strings"

	"demeter/internal/balloon"
	"demeter/internal/core"
	"demeter/internal/fault"
	"demeter/internal/health"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/obs"
	"demeter/internal/sim"
)

// ChaosConfig parameterizes a chaos run: a seed-driven fault schedule is
// applied at each rung of an intensity ladder while a full Demeter stack
// (double balloons, QoS rebalancer, policy-driven relocation) runs the
// configured workloads, and end-of-run invariants assert that no layer
// leaked or wedged. The zero value means "the default scenario"; the
// explorer (internal/explore) mutates every field, so the struct is the
// scenario-search space and serializes to JSON for frozen corpus cases.
type ChaosConfig struct {
	// Seed drives the fault injector; the same seed and schedule always
	// produce the same run (and the same report, bit for bit).
	Seed uint64 `json:"seed"`
	// Schedule maps fault points to base rates; nil means every
	// registered point at its default rate.
	Schedule fault.Schedule `json:"schedule"`
	// Ladder lists the schedule multipliers to run, one rung each. Rung 0
	// must be fault-free (multiplier 0) — it is the degradation
	// baseline. Nil means {0, 1, 4}.
	Ladder []float64 `json:"ladder"`
	// VMs overrides the cluster size (0 = the scale's s.VMs).
	VMs int `json:"vms"`
	// Floor is the minimum acceptable throughput at any rung as a
	// fraction of the fault-free baseline (0 = 0.5).
	Floor float64 `json:"floor"`
	// Design selects the per-VM TMM policy ("" = "demeter"); any entry of
	// ChaosDesigns is valid.
	Design string `json:"design,omitempty"`
	// Tier selects the slow medium: "pmem" (default) or "cxl".
	Tier string `json:"tier,omitempty"`
	// Workloads names the per-VM workloads, cycled over VM index; any
	// name Scale.NewApp accepts plus "gups". Nil means {"gups"}.
	Workloads []string `json:"workloads,omitempty"`
	// Overcommit shrinks the host FMEM pool: the pool is the per-VM sum
	// divided by this ratio, so 1.25 means the fast tier can back only
	// 80% of what the guests were promised. Values <= 1 mean fully
	// backed (the default).
	Overcommit float64 `json:"overcommit,omitempty"`
	// Health arms the per-VM delegation health monitor (meaningful for
	// the demeter design — other designs have no guest delegate to
	// watch): heartbeat checks, degraded-mode failover, recovery
	// handback. All three health fields are omitempty so pre-existing
	// frozen scenarios keep their hashes.
	Health bool `json:"health,omitempty"`
	// HeartbeatEpochs is the monitor's check period in classification
	// epochs (0 with Health = 4). Only meaningful with Health.
	HeartbeatEpochs int `json:"heartbeat_epochs,omitempty"`
	// NoFailover keeps the monitor detect-and-journal only: on DEGRADED
	// the wedged delegate is detached but no host-side fallback attaches,
	// so tiering freezes — the baseline the degraded experiment compares
	// failover against. Only meaningful with Health.
	NoFailover bool `json:"no_failover,omitempty"`
}

// ChaosDesigns lists the policies a chaos scenario may select. tpp-h is
// absent: hypervisor-managed guests need a different node layout than the
// double-balloon provisioning path builds.
var ChaosDesigns = []string{"demeter", "tpp", "memtis", "nomad", "vtmm"}

// ChaosWorkloads lists the workload names a chaos scenario may mix.
var ChaosWorkloads = append([]string{"gups"}, Apps...)

// DefaultChaosConfig returns the standard ladder at seed 1.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{Seed: 1, Ladder: []float64{0, 1, 4}, Floor: 0.5}
}

// Normalized returns the config with every zero-valued field replaced by
// its default for scale s. The result is self-describing — freezing it
// pins the full scenario even if defaults change later.
func (cfg ChaosConfig) Normalized(s Scale) ChaosConfig {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Schedule == nil {
		cfg.Schedule = fault.DefaultSchedule()
	}
	if cfg.Ladder == nil {
		cfg.Ladder = []float64{0, 1, 4}
	}
	if cfg.VMs == 0 {
		cfg.VMs = s.VMs
	}
	if cfg.Floor == 0 {
		cfg.Floor = 0.5
	}
	if cfg.Design == "" {
		cfg.Design = "demeter"
	}
	if cfg.Tier == "" {
		cfg.Tier = "pmem"
	}
	if len(cfg.Workloads) == 0 {
		cfg.Workloads = []string{"gups"}
	}
	if cfg.Overcommit < 1 {
		cfg.Overcommit = 1
	}
	if cfg.Health && cfg.HeartbeatEpochs == 0 {
		cfg.HeartbeatEpochs = 4
	}
	return cfg
}

// Validate rejects configs outside the scenario space: unknown designs,
// tiers, workloads or fault points, bad rates, an empty ladder, a faulty
// baseline rung, or a non-positive VM count.
func (cfg ChaosConfig) Validate() error {
	if err := cfg.Schedule.Validate(); err != nil {
		return err
	}
	if cfg.VMs < 1 {
		return fmt.Errorf("chaos: VMs must be >= 1, got %d", cfg.VMs)
	}
	if len(cfg.Ladder) == 0 {
		return fmt.Errorf("chaos: ladder must have at least one rung")
	}
	if cfg.Ladder[0] != 0 {
		return fmt.Errorf("chaos: ladder rung 0 must be fault-free (multiplier 0), got %g", cfg.Ladder[0])
	}
	for _, m := range cfg.Ladder {
		if math.IsNaN(m) || m < 0 {
			return fmt.Errorf("chaos: bad ladder multiplier %g", m)
		}
	}
	if math.IsNaN(cfg.Floor) || cfg.Floor < 0 || cfg.Floor > 1 {
		return fmt.Errorf("chaos: floor %g outside [0, 1]", cfg.Floor)
	}
	if !containsString(ChaosDesigns, cfg.Design) {
		return fmt.Errorf("chaos: unknown design %q", cfg.Design)
	}
	if _, err := mem.PaperTopology(cfg.Tier); err != nil {
		return fmt.Errorf("chaos: unknown tier %q", cfg.Tier)
	}
	for _, w := range cfg.Workloads {
		if !containsString(ChaosWorkloads, w) {
			return fmt.Errorf("chaos: unknown workload %q", w)
		}
	}
	if math.IsNaN(cfg.Overcommit) || cfg.Overcommit < 1 || cfg.Overcommit > 4 {
		return fmt.Errorf("chaos: overcommit %g outside [1, 4]", cfg.Overcommit)
	}
	if !cfg.Health && (cfg.HeartbeatEpochs != 0 || cfg.NoFailover) {
		return fmt.Errorf("chaos: heartbeat/failover knobs set without health monitoring")
	}
	if cfg.HeartbeatEpochs < 0 || cfg.HeartbeatEpochs > 64 {
		return fmt.Errorf("chaos: heartbeat %d epochs outside [1, 64]", cfg.HeartbeatEpochs)
	}
	return nil
}

func containsString(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// RungResult is one ladder step's structured outcome. Report carries the
// rendered per-rung text block (deterministic for a given seed and
// config); Snapshot carries the rung's end-of-run metrics so callers (the
// explorer's fitness function) can score outlier behavior that violates
// no invariant.
type RungResult struct {
	Mult       float64
	Throughput float64
	Violations []string
	Report     string
	Snapshot   obs.Snapshot
}

// RunChaosLadder runs every rung of cfg's ladder as an independent leaf
// run under the worker pool and derives the cross-rung floor check. It is
// the per-candidate entry point the explorer calls: structured results
// instead of one rendered report. The error is non-nil only for invalid
// configs; invariant violations are data, not errors, at this layer.
func RunChaosLadder(s Scale, cfg ChaosConfig) ([]RungResult, error) {
	cfg = cfg.Normalized(s)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Each rung is an independent leaf run: its own engine and its own
	// injector seeded identically, so the fault stream at rung i does not
	// depend on which rungs ran before (or concurrently with) it. The
	// baseline ratio and floor check are derived after collection.
	rungs := runIndexed(len(cfg.Ladder), func(i int) RungResult {
		return runChaosRung(s, cfg, cfg.Ladder[i])
	})
	for i := range rungs {
		r := &rungs[i]
		if i > 0 && rungs[0].Throughput > 0 {
			ratio := r.Throughput / rungs[0].Throughput
			r.Report += fmt.Sprintf("  throughput vs baseline: %.2fx\n", ratio)
			if ratio < cfg.Floor {
				r.Violations = append(r.Violations, fmt.Sprintf("throughput %.2fx below floor %.2fx", ratio, cfg.Floor))
			}
		}
		if len(r.Violations) == 0 {
			r.Report += "  invariants: OK\n"
		} else {
			for _, e := range r.Violations {
				r.Report += fmt.Sprintf("  INVARIANT VIOLATED: %s\n", e)
			}
		}
	}
	return rungs, nil
}

// ChaosReport assembles the ladder results into the canonical chaos
// report. The error is non-nil when any invariant was violated at any
// rung; the report always includes the full per-layer accounting. cfg
// must be the normalized config the rungs were run with.
func ChaosReport(cfg ChaosConfig, rungs []RungResult) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos: %d VMs (%s, tier %s, workloads %s, overcommit %g) under schedule %q, seed %d\n\n",
		cfg.VMs, cfg.Design, cfg.Tier, strings.Join(cfg.Workloads, "+"), cfg.Overcommit,
		cfg.Schedule.String(), cfg.Seed)
	var failures []string
	for _, r := range rungs {
		b.WriteString(r.Report)
		b.WriteByte('\n')
		for _, e := range r.Violations {
			failures = append(failures, fmt.Sprintf("x%g: %s", r.Mult, e))
		}
	}
	if len(failures) > 0 {
		return b.String(), fmt.Errorf("chaos: %d invariant violation(s): %s", len(failures), strings.Join(failures, "; "))
	}
	b.WriteString("All invariants held at every rung: no frame leaks, no lost balloon\n" +
		"pages, GPT/EPT/TLB consistent, throughput within the degradation floor.\n")
	return b.String(), nil
}

// RunChaos runs the fault-injection ladder and returns a deterministic
// report. The error is non-nil when the config is invalid or when any
// invariant was violated at any rung; in the latter case the report still
// includes the full per-layer accounting.
func RunChaos(s Scale, cfg ChaosConfig) (string, error) {
	cfg = cfg.Normalized(s)
	rungs, err := RunChaosLadder(s, cfg)
	if err != nil {
		return "", err
	}
	return ChaosReport(cfg, rungs)
}

// runChaosRung runs one ladder step: a fresh cluster with the schedule
// scaled by mult, full Demeter provisioning plus the configured policy,
// then the invariant battery. A panic anywhere in the run (a scenario
// driving a layer into an unhandled state) is converted into a violation
// instead of crashing the whole campaign — a deterministic crash is the
// most valuable find an explorer can freeze.
func runChaosRung(s Scale, cfg ChaosConfig, mult float64) (r RungResult) {
	r.Mult = mult
	defer func() {
		if p := recover(); p != nil {
			r.Violations = append(r.Violations, fmt.Sprintf("panic: %v", p))
			r.Report = fmt.Sprintf("rung x%g:\n  PANIC: %v\n", mult, p)
		}
	}()
	n := cfg.VMs

	inj := fault.NewInjector(cfg.Seed)
	cfg.Schedule.Scale(mult).Apply(inj)

	hostFMEM := s.VMFMEM * uint64(n)
	if cfg.Overcommit > 1 {
		hostFMEM = uint64(float64(hostFMEM) / cfg.Overcommit)
		if hostFMEM == 0 {
			hostFMEM = 1
		}
	}
	c := s.newCluster(cfg.Tier, hostFMEM, s.VMSMEM*uint64(n))
	eng := c.eng
	c.m.Fault = inj // before NewVM/NewDouble so every layer inherits it
	// Journal each fired fault. OnFire runs after the draw, so the fault
	// stream is identical with or without observability attached.
	inj.OnFire = func(p fault.Point, magnitude float64) {
		c.o.Journal.Append(obs.Event{
			At: eng.Now(), Type: obs.EvFault, VM: -1,
			Note: string(p), Arg1: math.Float64bits(magnitude),
		})
	}

	// Elastic configuration: guest nodes at full capacity, the double
	// balloon carves the actual provision (figure 6's demeter scheme).
	var vms []*hypervisor.VM
	var doubles []*balloon.Double
	pending := n
	for i := 0; i < n; i++ {
		total := s.VMFMEM + s.VMSMEM
		vm := c.newVM(4, total, total)
		d := balloon.NewDouble(eng, vm)
		d.SetProvision(s.VMFMEM, s.VMSMEM, func() { pending-- })
		vms = append(vms, vm)
		doubles = append(doubles, d)
	}
	// Under overcommit the double balloons can retry reclaim forever on a
	// too-small FMEM pool; bound the settling phase in simulated time so a
	// wedged provision becomes a reported violation, not a livelock.
	deadline := eng.Now() + 4*s.Horizon
	for pending > 0 {
		if !eng.Step() {
			r.Violations = append(r.Violations, "provisioning never settled (balloon watchdog failed to fire)")
			r.Report = fmt.Sprintf("rung x%g:\n", mult)
			return r
		}
		if eng.Now() > deadline {
			r.Violations = append(r.Violations, fmt.Sprintf("provisioning did not settle within 4x horizon %v (%d VM(s) pending)", s.Horizon, pending))
			r.Report = fmt.Sprintf("rung x%g:\n", mult)
			return r
		}
	}

	for _, d := range doubles {
		d.StartStats(2 * s.EpochPeriod)
	}
	reb := balloon.NewRebalancer(eng, doubles, nil)
	reb.Budget = s.VMFMEM * uint64(n)
	reb.MinPerVM = s.VMFMEM / 4
	reb.SMEMPerVM = s.VMSMEM
	reb.Start(8 * s.EpochPeriod)

	var ds []*core.Demeter
	for i, vm := range vms {
		c.attach(vm, s.NewApp(cfg.Workloads[i%len(cfg.Workloads)], uint64(i)+1), s.NewPolicy(cfg.Design))
		if d, ok := c.pols[i].(*core.Demeter); ok {
			ds = append(ds, d)
		}
	}

	// Delegation health monitoring: one monitor per delegated VM,
	// checking every HeartbeatEpochs epochs. Non-demeter designs have no
	// guest delegate, so Health is a no-op for them by construction.
	var mons []*health.Monitor
	if cfg.Health {
		for i, pol := range c.pols {
			d, ok := pol.(*core.Demeter)
			if !ok {
				continue
			}
			mon := health.NewMonitor(health.Config{
				CheckPeriod: sim.Duration(cfg.HeartbeatEpochs) * s.EpochPeriod,
				Failover:    !cfg.NoFailover,
				Fallback:    s.scanConfig(),
			}, d, doubles[i])
			mon.AttachExecutor(c.xs[i])
			mon.Start(eng, vms[i])
			mons = append(mons, mon)
		}
	}

	// Double the horizon: faulty rungs legitimately run slower, and the
	// degradation floor (not the horizon) is the performance assertion.
	finished := c.run(2 * s.Horizon)
	reb.Stop()
	// Monitors stop before the idle drain: a DEGRADED monitor's probe
	// timer self-reschedules with backoff and would otherwise keep the
	// engine busy forever.
	for _, mon := range mons {
		mon.Stop()
	}
	c.detach()
	for _, d := range doubles {
		d.StopStats()
	}
	eng.RunUntilIdle()
	if !finished {
		r.Violations = append(r.Violations, fmt.Sprintf("cluster did not finish within 2x horizon %v", s.Horizon))
	}

	// Teardown: reap any completions whose interrupts were dropped, then
	// audit every layer.
	for i, d := range doubles {
		d.Quiesce()
		if left := d.Inflight(); left != 0 {
			r.Violations = append(r.Violations, fmt.Sprintf("VM%d: %d balloon/stats requests still in flight after quiesce", i, left))
		}
	}
	if err := machineAuditErr(c.m); err != nil {
		r.Violations = append(r.Violations, err.Error())
	}
	for i, mon := range mons {
		if err := mon.AuditErr(); err != nil {
			r.Violations = append(r.Violations, fmt.Sprintf("VM%d: %v", i, err))
		}
	}
	for i, d := range doubles {
		k := vms[i].Kernel
		if held, ballooned := d.FMEM.Held(), k.BalloonedOn(0); held != ballooned {
			r.Violations = append(r.Violations, fmt.Sprintf("VM%d: FMEM balloon holds %d but guest has %d ballooned", i, held, ballooned))
		}
		if held, ballooned := d.SMEM.Held(), k.BalloonedOn(1); held != ballooned {
			r.Violations = append(r.Violations, fmt.Sprintf("VM%d: SMEM balloon holds %d but guest has %d ballooned", i, held, ballooned))
		}
	}

	ops, wall := c.totals()
	if wall > 0 {
		r.Throughput = float64(ops) / wall.Seconds()
	}

	r.Report = chaosRungReport(mult, r.Throughput, inj, vms, ds, doubles, mons)
	r.Snapshot = c.o.Reg.Snapshot()
	s.finishObs(fmt.Sprintf("chaos-x%g", mult), c.o)
	return r
}

// chaosRungReport renders one rung's fault and per-layer counters. Output
// is fully deterministic for a given seed/schedule. The core line reports
// zeros for non-demeter designs — their policy-side counters live in the
// metrics snapshot instead.
func chaosRungReport(mult, thpt float64, inj *fault.Injector, vms []*hypervisor.VM, ds []*core.Demeter, doubles []*balloon.Double, mons []*health.Monitor) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rung x%g: throughput %.4g ops/s\n", mult, thpt)

	for _, c := range inj.Counters() {
		fmt.Fprintf(&b, "  fault %-24s rate %-8g fired %d/%d\n", c.Point, c.Rate, c.Fired, c.Checked)
	}

	var hv struct{ busy, mrb, srb, spikes uint64 }
	var pe struct{ pmis, widen, narrow uint64 }
	for _, vm := range vms {
		st := vm.Stats()
		hv.busy += st.MigrateBusy
		hv.mrb += st.MigrateRollbacks
		hv.srb += st.SwapRollbacks
		hv.spikes += st.LatencySpikes
		if vm.PEBS != nil {
			ps := vm.PEBS.Stats()
			pe.pmis += ps.PMIs
			pe.widen += ps.Widenings
			pe.narrow += ps.Narrowings
		}
	}
	var co struct{ prom, swaps, busy, rb, retries, ok, abandoned uint64 }
	for _, d := range ds {
		st := d.Stats()
		co.prom += st.Promoted
		co.swaps += st.SwapPairs
		co.busy += st.Busy
		co.rb += st.Rollbacks
		co.retries += st.Retries
		co.ok += st.RetriedOK
		co.abandoned += st.Abandoned
	}
	var bl struct{ timeouts, recovered, aborts, resubmits uint64 }
	var vq struct{ stalls, drops, recovered uint64 }
	for _, d := range doubles {
		for _, side := range []*balloon.Balloon{d.FMEM, d.SMEM} {
			bl.timeouts += side.Timeouts
			bl.recovered += side.Recovered
			bl.aborts += side.Aborts
			bl.resubmits += side.Resubmits
			qs := side.QueueStats()
			vq.stalls += qs.StalledKicks
			vq.drops += qs.DroppedIRQs
			vq.recovered += qs.PollRecovered
		}
		qs := d.StatsQueueStats()
		vq.stalls += qs.StalledKicks
		vq.drops += qs.DroppedIRQs
		vq.recovered += qs.PollRecovered
	}

	fmt.Fprintf(&b, "  hypervisor: busy %d, migrate rollbacks %d, swap rollbacks %d, latency spikes %d\n",
		hv.busy, hv.mrb, hv.srb, hv.spikes)
	fmt.Fprintf(&b, "  core:       promoted %d, swaps %d, busy %d, rollbacks %d, retries %d (ok %d), abandoned %d\n",
		co.prom, co.swaps, co.busy, co.rb, co.retries, co.ok, co.abandoned)
	fmt.Fprintf(&b, "  balloon:    timeouts %d, recovered %d, aborts %d, resubmits %d\n",
		bl.timeouts, bl.recovered, bl.aborts, bl.resubmits)
	fmt.Fprintf(&b, "  virtio:     stalled kicks %d, dropped IRQs %d, poll-recovered %d\n",
		vq.stalls, vq.drops, vq.recovered)
	fmt.Fprintf(&b, "  pebs:       PMIs %d, widenings %d, narrowings %d\n",
		pe.pmis, pe.widen, pe.narrow)
	// The health line appears only when monitors ran: default chaos
	// output (and every pre-existing frozen corpus report) is unchanged.
	if len(mons) > 0 {
		var h struct {
			checks, beats, degr, fo, probes, failed, hb, rec uint64
			degraded                                         sim.Duration
		}
		for _, mon := range mons {
			st := mon.Stats()
			h.checks += st.Checks
			h.beats += st.MissedBeats
			h.degr += st.Degradations
			h.fo += st.Failovers
			h.probes += st.Probes
			h.failed += st.FailedProbes
			h.hb += st.Handbacks
			h.rec += st.Recoveries
			h.degraded += mon.DegradedTime()
		}
		fmt.Fprintf(&b, "  health:     checks %d, missed beats %d, degradations %d, failovers %d, probes %d (failed %d), handbacks %d, recoveries %d, degraded %v\n",
			h.checks, h.beats, h.degr, h.fo, h.probes, h.failed, h.hb, h.rec, h.degraded)
	}
	return b.String()
}
