package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"demeter/internal/balloon"
	"demeter/internal/daemon"
	"demeter/internal/engine"
	"demeter/internal/experiments"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/obs"
	"demeter/internal/sim"
	"demeter/internal/workload"
)

// workloadDef is one benchmark workload: a closed, fixed-size batch of
// work run once per rep.
type workloadDef struct {
	name string
	run  func(r *rep)
}

// workloads is the benchmark's workload list, in report order. The
// reasons each was chosen are in BENCHMARK.json and bench/README.md.
var workloads = []*workloadDef{
	{name: "gups9-elastic", run: gupsElastic},
	{name: "apps-baselines", run: appsBaselines},
	{name: "serve-mix", run: serveMix},
	{name: "suite-tiny", run: suiteTiny},
}

func workloadByName(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// clusterScale sizes the cluster workloads. The full size keeps the
// quick scale's footprints and cadences but runs a third of its GUPS
// operations and half its app operations, so one rep takes seconds and
// a run holds several reps. Smoke size is the tiny scale.
func clusterScale(smoke bool) experiments.Scale {
	if smoke {
		return experiments.Tiny()
	}
	s := experiments.Quick()
	s.GUPSOps /= 3
	s.AppOps /= 2
	return s
}

// cluster is a machine built from public constructors the way the
// experiments build theirs, driven by the benchmark's own step loop so
// each engine step can be traced.
type cluster struct {
	eng      *sim.Engine
	m        *hypervisor.Machine
	o        *obs.Obs
	xs       []*engine.Executor
	policies []experiments.Policy
}

func newCluster(s experiments.Scale, hostFMEM, hostSMEM uint64) *cluster {
	eng := sim.NewEngine()
	m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(hostFMEM, hostSMEM))
	if s.ScanPTECost > 0 {
		m.Cost.ScanPTECost = s.ScanPTECost
	}
	o := obs.New(0)
	m.AttachObs(o)
	return &cluster{eng: eng, m: m, o: o}
}

func (c *cluster) newVM(guestFMEM, guestSMEM uint64) *hypervisor.VM {
	vm, err := c.m.NewVM(hypervisor.VMConfig{
		VCPUs: 4, GuestFMEM: guestFMEM, GuestSMEM: guestSMEM,
		FMEMBacking: 0, SMEMBacking: 1,
	})
	if err != nil {
		panic(err)
	}
	return vm
}

// attach gives vm its workload and policy. Traced reps wrap the workload
// so each Fill becomes a workload.fill span.
func (c *cluster) attach(r *rep, vm *hypervisor.VM, wl workload.Workload, pol experiments.Policy) {
	if r.tr != nil {
		wl = traceWorkload(wl, r.tr)
	}
	x := engine.NewExecutor(c.eng, vm, wl)
	x.PublishObs(c.o, fmt.Sprintf("%d", vm.ID))
	pol.Attach(c.eng, vm)
	c.xs = append(c.xs, x)
	c.policies = append(c.policies, pol)
}

func (c *cluster) finished() bool {
	for _, x := range c.xs {
		if !x.Finished() {
			return false
		}
	}
	return true
}

// run starts every executor and steps the engine until all finish or
// the horizon passes, as engine.RunAll does.
func (c *cluster) run(r *rep, horizon sim.Duration) {
	for _, x := range c.xs {
		x.Start()
	}
	deadline := c.eng.Now() + horizon
	for c.eng.Now() < deadline && !c.finished() {
		i := r.tr.begin("sim.step")
		ok := c.eng.Step()
		r.tr.endStep(i)
		if !ok {
			break
		}
	}
}

// finish detaches the policies, audits every layer, and folds the obs
// snapshot, the per-VM runtimes and the per-VM ledgers into the rep's
// fingerprint.
func (c *cluster) finish(r *rep) {
	for _, p := range c.policies {
		p.Detach()
	}
	if !c.finished() {
		r.fail("cluster did not finish within the horizon")
	}
	if err := c.m.AuditFrames(); err != nil {
		r.fail("host frame audit: %v", err)
	}
	for _, vm := range c.m.VMs {
		if err := vm.AuditGuestFrames(); err != nil {
			r.fail("vm%d guest frame audit: %v", vm.ID, err)
		}
		if err := vm.AuditMappings(); err != nil {
			r.fail("vm%d mapping audit: %v", vm.ID, err)
		}
	}
	sp := r.tr.begin("obs.snapshot")
	snap := c.o.Reg.Snapshot()
	r.tr.end(sp)
	if err := snap.WriteJSON(r.fp); err != nil {
		r.fail("snapshot: %v", err)
	}
	for i, x := range c.xs {
		vm := c.m.VMs[i]
		if x.Finished() {
			fmt.Fprintf(r.fp, "vm%d runtime %d\n", vm.ID, x.Runtime())
		}
		for _, comp := range vm.Ledger.Components() {
			fmt.Fprintf(r.fp, "vm%d ledger %s %d\n", vm.ID, comp, vm.Ledger.Total(comp))
		}
	}
	for _, comp := range c.m.HostLedger.Components() {
		fmt.Fprintf(r.fp, "host ledger %s %d\n", comp, c.m.HostLedger.Total(comp))
	}
	layerCounts(r, snap)
	r.set("sim.events", float64(c.eng.EventsProcessed()))
	r.out.Attempted++
}

// gupsElastic is Figure 6's demeter-balloon+demeter cell: every VM boots
// at full capacity on both guest nodes, a double balloon carves out its
// provision, and once all balloons settle each VM runs GUPS under
// Demeter.
func gupsElastic(r *rep) {
	s := clusterScale(r.smoke)
	n := s.VMs
	r.beginSetup()
	c := newCluster(s, s.VMFMEM*uint64(n), s.VMSMEM*uint64(n))
	total := s.VMFMEM + s.VMSMEM
	pending := n
	vms := make([]*hypervisor.VM, n)
	for i := range vms {
		vms[i] = c.newVM(total, total)
		balloon.NewDouble(c.eng, vms[i]).SetProvision(s.VMFMEM, s.VMSMEM, func() { pending-- })
	}
	settle := r.tr.begin("balloon.settle")
	for pending > 0 {
		if !c.eng.Step() {
			panic("provisioning never settled")
		}
	}
	r.tr.end(settle)
	for i, vm := range vms {
		wl := workload.Must(workload.NewGUPS(s.GUPSFootprint, s.GUPSOps, r.seed+uint64(i)))
		c.attach(r, vm, wl, s.NewPolicy("demeter"))
	}
	r.beginRun()
	c.run(r, s.Horizon)
	r.endRun()
	c.finish(r)
	r.set("accesses.gups", r.out.Metrics["hypervisor.accesses"])
}

// appsDesigns is the integrated baseline each apps-baselines VM runs,
// indexed by VM modulo its length.
var appsDesigns = []string{"tpp", "memtis", "nomad", "vtmm", "tpp-h"}

// appsBaselines runs the seven §5.3 applications on one machine, each
// under one of the integrated TMM baselines.
func appsBaselines(r *rep) {
	s := clusterScale(r.smoke)
	n := uint64(len(experiments.Apps))
	r.beginSetup()
	c := newCluster(s, s.VMFMEM*n, s.VMSMEM*n)
	for i, app := range experiments.Apps {
		design := appsDesigns[i%len(appsDesigns)]
		guestFMEM, guestSMEM := s.VMFMEM, s.VMSMEM
		if design == "tpp-h" {
			// Hypervisor-managed guests are tier-unaware: one big node,
			// as RunCluster sizes them.
			guestFMEM, guestSMEM = s.VMFMEM+s.VMSMEM, 1
		}
		vm := c.newVM(guestFMEM, guestSMEM)
		c.attach(r, vm, s.NewApp(app, r.seed+uint64(i)), s.NewPolicy(design))
	}
	r.beginRun()
	c.run(r, s.Horizon)
	r.endRun()
	c.finish(r)
	for i, app := range experiments.Apps {
		r.set("accesses."+app, float64(c.m.VMs[i].Stats().Accesses))
	}
}

// serveRuns is the number of `run` commands in one serve-mix session.
func serveRuns(smoke bool) int {
	if smoke {
		return 50
	}
	return 1000
}

// serveConfig is the serve-mix daemon config: four VMs, one per tracker
// kind, each paired with a different driven policy.
func serveConfig(seed uint64) string {
	vm := func(i int, name, wl, tracker, extra, policy string) string {
		return fmt.Sprintf(`{"name": %q, "workload": %q, "footprint_pages": 6000, "seed": %d,
      "tracker": {"kind": %q, "period": "1ms"%s}, "policy": {"kind": %q, "period": "2ms"}}`,
			name, wl, seed+uint64(i), tracker, extra, policy)
	}
	return fmt.Sprintf(`{
  "seed": %d,
  "host_fmem_frames": 8192,
  "host_smem_frames": 65536,
  "quantum": "2ms",
  "defaults": {
    "fmem_frames": 1024,
    "smem_frames": 8192,
    "tracker": {"kind": "abit", "period": "1ms"},
    "policy": {"kind": "heat", "period": "2ms", "migration_batch": 64}
  },
  "vms": [
    %s,
    %s,
    %s,
    %s
  ]
}`, seed,
		vm(0, "vm0", "gups", "abit", "", "heat"),
		vm(1, "vm1", "ycsb-a", "pebs", `, "sample_period": 97`, "ranked"),
		vm(2, "vm2", "silo", "damon", "", "threshold"),
		vm(3, "vm3", "xsbench", "idlepage", "", "age"))
}

// serveScript is the serve-mix command list: runs of one 2ms quantum
// (the policy period, so every run holds one policy round of each VM), a
// stats table and an idle-age dump after every tenth run, and the live
// reshaping commands at a quarter, half and three quarters of the runs.
func serveScript(runs int) []string {
	var lines []string
	for i := 1; i <= runs; i++ {
		lines = append(lines, "run")
		if i%10 == 0 {
			lines = append(lines, "stats", "policy -dump accessed 0,1ms,5ms,0")
		}
		switch i {
		case runs / 4:
			lines = append(lines, "vm add vm4 ycsb-b 3000 abit heat")
		case runs / 2:
			lines = append(lines, "tracker switch vm0 pebs")
		case runs * 3 / 4:
			lines = append(lines, "vm remove vm4")
		}
	}
	return lines
}

// commandSpan names a serve command's span after its verb.
func commandSpan(line string) string {
	f := strings.Fields(line)
	switch {
	case f[0] == "policy":
		return "daemon.dump"
	case len(f) > 1 && (f[0] == "vm" || f[0] == "tracker"):
		return "daemon." + f[0] + "_" + f[1]
	}
	return "daemon." + f[0]
}

// serveMix drives one daemon session command by command, the way a
// single interactive client would, and fingerprints the transcript.
func serveMix(r *rep) {
	r.beginSetup()
	cfg, err := daemon.ParseConfig(strings.NewReader(serveConfig(r.seed)))
	if err != nil {
		panic(err)
	}
	d, err := daemon.New(cfg)
	if err != nil {
		panic(err)
	}
	r.beginRun()
	var runMs []float64
	for _, line := range serveScript(serveRuns(r.smoke)) {
		if line == "vm remove vm4" {
			// Publish the leaving VM's final counters: the registry keeps
			// them after the VM is gone, so the last snapshot counts
			// every access the session simulated.
			d.Snapshot()
		}
		sp := r.tr.begin(commandSpan(line))
		start := time.Now()
		out, _, err := d.Execute(line)
		took := time.Since(start)
		r.tr.end(sp)
		r.out.Attempted++
		fmt.Fprintf(r.fp, "%s%s\n", daemon.Prompt, line)
		if err != nil {
			r.fail("%s: %v", line, err)
			fmt.Fprintf(r.fp, "error: %v\n", err)
			continue
		}
		fmt.Fprint(r.fp, out)
		if line == "run" {
			runMs = append(runMs, took.Seconds()*1e3)
		}
	}
	r.endRun()
	layerCounts(r, d.Snapshot())
	sort.Float64s(runMs)
	r.set("run_p50_ms", percentile(runMs, 0.50))
	r.set("run_p99_ms", percentile(runMs, 0.99))
}

// suiteExperiments is the experiment list suite-tiny runs: all of them,
// or at smoke size the two cheapest.
func suiteExperiments(smoke bool) []experiments.Experiment {
	all := experiments.All()
	if !smoke {
		return all
	}
	var out []experiments.Experiment
	for _, e := range all {
		if e.ID == "table2" || e.ID == "figure4" {
			out = append(out, e)
		}
	}
	return out
}

// suiteTiny runs every experiment at tiny scale, one at a time, and
// fingerprints the rendered reports. Experiments fix their own seeds,
// so this workload's input does not depend on the benchmark seed. Each
// experiment builds its own clusters, so the suite's set-up is only what
// precedes the first experiment: the scale, the experiment list and the
// obs collector.
func suiteTiny(r *rep) {
	r.beginSetup()
	experiments.SetParallelism(1)
	s := experiments.Tiny()
	es := suiteExperiments(r.smoke)
	experiments.ResetObsCollection()
	r.beginRun()
	for _, e := range es {
		sp := r.tr.begin("experiment." + e.ID)
		out, err := runExperiment(s, e)
		r.tr.end(sp)
		r.out.Attempted++
		if err != nil {
			r.fail("%s: %v", e.ID, err)
			continue
		}
		fmt.Fprintf(r.fp, "=== %s\n%s\n", e.ID, out)
	}
	r.endRun()
	layerCounts(r, experiments.GlobalMetrics())
}

// runExperiment runs one experiment and turns a panic (a failed audit
// or an invariant violation) into an error.
func runExperiment(s experiments.Scale, e experiments.Experiment) (out string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	reports := experiments.RunExperiments(s, []experiments.Experiment{e})
	return reports[0].Output, nil
}

// tracedWorkload wraps a workload so each Fill is a workload.fill span
// nested in the engine step that called it.
type tracedWorkload struct {
	workload.Workload
	tr *tracer
}

func (w *tracedWorkload) Fill(dst []workload.Access) (int, bool) {
	sp := w.tr.begin("workload.fill")
	n, done := w.Workload.Fill(dst)
	w.tr.end(sp)
	return n, done
}

// tracedTxnWorkload forwards workload.Transactional, so the executor
// takes the same consume path as for the unwrapped workload.
type tracedTxnWorkload struct {
	*tracedWorkload
	txn workload.Transactional
}

func (w *tracedTxnWorkload) TxnAccesses() int { return w.txn.TxnAccesses() }

func traceWorkload(wl workload.Workload, tr *tracer) workload.Workload {
	tw := &tracedWorkload{Workload: wl, tr: tr}
	if txn, ok := wl.(workload.Transactional); ok {
		return &tracedTxnWorkload{tracedWorkload: tw, txn: txn}
	}
	return tw
}
