package daemon

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"demeter/internal/engine"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/obs"
	"demeter/internal/policy"
	"demeter/internal/sim"
	"demeter/internal/stats"
	"demeter/internal/track"
)

// vmState is one live guest under daemon management.
type vmState struct {
	spec VMSpec
	vm   *hypervisor.VM
	x    *engine.Executor
	tr   track.Tracker // nil when the policy is integrated
	pol  policy.Policy
}

// Daemon owns one machine, its engine and the managed VMs. All state
// mutations and reads go through mu: the simulation itself is
// single-threaded (one engine, simulated time), but Snapshot may be
// called from other goroutines while a Serve loop executes commands.
type Daemon struct {
	mu    sync.Mutex
	cfg   Config
	eng   *sim.Engine
	m     *hypervisor.Machine
	o     *obs.Obs
	vms   map[string]*vmState
	order []string // vm names in creation order, the rendering order
}

// New builds a daemon from a validated config: host topology, obs
// attachment, and every declared VM with its tracker × policy pairing
// attached and its workload stream started. Any failure tears nothing
// down half-way — the returned error names the offending VM.
func New(cfg Config) (*Daemon, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	topology, err := mem.PaperTopology(cfg.Tier)
	if err != nil {
		return nil, fmt.Errorf("daemon: config: %w", err)
	}
	eng := sim.NewEngine()
	d := &Daemon{
		cfg: cfg,
		eng: eng,
		m:   hypervisor.NewMachine(eng, topology(cfg.HostFMEMFrames, cfg.HostSMEMFrames)),
		o:   obs.NewCounting(0),
		vms: make(map[string]*vmState),
	}
	d.m.AttachObs(d.o)
	for _, spec := range cfg.VMs {
		if err := d.addVM(spec); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Now returns the current simulated time.
func (d *Daemon) Now() sim.Time {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.eng.Now()
}

// Snapshot returns the obs registry's current snapshot. Safe to call
// concurrently with a Serve loop: the same lock that serializes command
// execution guards the snapshot, so readers never observe a half-applied
// command.
func (d *Daemon) Snapshot() obs.Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.o.Reg.Snapshot()
}

// addVM creates a VM from a fully merged spec and attaches its pairing.
// Caller holds mu (or is still single-threaded construction).
func (d *Daemon) addVM(spec VMSpec) error {
	spec = d.cfg.mergeSpec(spec)
	if spec.Name == "" {
		return fmt.Errorf("daemon: vm has no name")
	}
	if _, ok := d.vms[spec.Name]; ok {
		return fmt.Errorf("daemon: vm %q already exists", spec.Name)
	}
	wl, err := newWorkload(spec.Workload, spec.FootprintPages, spec.Ops, spec.Seed)
	if err != nil {
		return fmt.Errorf("daemon: vm %q: %w", spec.Name, err)
	}

	pol, err := policy.New(spec.Policy)
	if err != nil {
		return fmt.Errorf("daemon: vm %q: %w", spec.Name, err)
	}
	var tr track.Tracker
	if spec.Tracker.Kind != "" {
		if tr, err = track.New(spec.Tracker); err != nil {
			return fmt.Errorf("daemon: vm %q: %w", spec.Name, err)
		}
	} else if policy.TrackerDriven(spec.Policy.Kind) {
		return fmt.Errorf("daemon: vm %q: policy %q needs a tracker", spec.Name, spec.Policy.Kind)
	}

	// Admission: the host backs every guest frame on first touch, so the
	// live guests' frames together must fit the host.
	guestFrames := spec.FMEMFrames + spec.SMEMFrames
	hostFrames := d.cfg.HostFMEMFrames + d.cfg.HostSMEMFrames
	total := guestFrames
	for _, s := range d.vms {
		total += s.spec.FMEMFrames + s.spec.SMEMFrames
	}
	if total > hostFrames {
		return fmt.Errorf("daemon: vm %q: guest frames would total %d, more than the host's %d", spec.Name, total, hostFrames)
	}

	vm, err := d.m.NewVM(hypervisor.VMConfig{
		VCPUs:       spec.VCPUs,
		GuestFMEM:   spec.FMEMFrames,
		GuestSMEM:   spec.SMEMFrames,
		FMEMBacking: 0,
		SMEMBacking: 1,
	})
	if err != nil {
		return fmt.Errorf("daemon: vm %q: %w", spec.Name, err)
	}
	x := engine.NewExecutor(d.eng, vm, wl)
	// The init sweep touches every workload page, each needing its own
	// guest frame.
	if init := wl.InitOps(); init > guestFrames {
		x.Stop()
		vm.Destroy()
		return fmt.Errorf("daemon: vm %q: workload touches %d pages, more than its %d guest frames", spec.Name, init, guestFrames)
	}
	if tr != nil {
		if err := tr.Attach(d.eng, vm); err != nil {
			x.Stop()
			vm.Destroy()
			return fmt.Errorf("daemon: vm %q: %w", spec.Name, err)
		}
	}
	if err := pol.Attach(d.eng, vm, tr); err != nil {
		if tr != nil {
			tr.Detach()
		}
		x.Stop()
		vm.Destroy()
		return fmt.Errorf("daemon: vm %q: %w", spec.Name, err)
	}
	x.PublishObs(d.o, spec.Name)
	x.Start()

	d.vms[spec.Name] = &vmState{spec: spec, vm: vm, x: x, tr: tr, pol: pol}
	d.order = append(d.order, spec.Name)
	return nil
}

// removeVM stops the workload, detaches the pairing and destroys the
// guest, returning its frames to the host. Caller holds mu.
func (d *Daemon) removeVM(name string) error {
	s, ok := d.vms[name]
	if !ok {
		return fmt.Errorf("daemon: no vm %q", name)
	}
	s.x.Stop()
	s.pol.Detach()
	if s.tr != nil {
		s.tr.Detach()
	}
	s.vm.Destroy()
	delete(d.vms, name)
	for i, n := range d.order {
		if n == name {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	return nil
}

// switchTracker swaps a VM's tracker kind live, re-attaching a
// tracker-driven policy to the new feed (integrated policies bundle
// their own tracking and keep running untouched). Caller holds mu.
func (d *Daemon) switchTracker(name, kind string) error {
	s, ok := d.vms[name]
	if !ok {
		return fmt.Errorf("daemon: no vm %q", name)
	}
	spec := s.spec.Tracker
	spec.Kind = kind
	tr, err := track.New(spec)
	if err != nil {
		return err
	}
	trackerDriven := policy.TrackerDriven(s.spec.Policy.Kind)
	if trackerDriven {
		s.pol.Detach()
	}
	if s.tr != nil {
		s.tr.Detach()
	}
	if err := tr.Attach(d.eng, s.vm); err != nil {
		return err
	}
	if trackerDriven {
		if err := s.pol.Attach(d.eng, s.vm, tr); err != nil {
			tr.Detach()
			return err
		}
	}
	s.tr = tr
	s.spec.Tracker = spec
	return nil
}

// run advances simulated time by dur. Caller holds mu.
func (d *Daemon) run(dur sim.Duration) {
	d.eng.Run(d.eng.Now() + sim.Time(dur))
}

// millis renders a ledger duration in milliseconds of CPU time.
func millis(dur sim.Duration) float64 {
	return float64(dur) / float64(sim.Millisecond)
}

// statsTable renders the per-VM stats table. Caller holds mu.
func (d *Daemon) statsTable() string {
	t := stats.NewTable(fmt.Sprintf("t=%v", d.eng.Now()),
		"vm", "workload", "tracker", "policy", "accesses", "fast[%]",
		"gfaults", "eptfaults", "track[ms]", "classify[ms]", "migrate[ms]")
	for _, name := range d.order {
		s := d.vms[name]
		st := s.vm.Stats()
		fastPct := 0.0
		if hits := st.FastHits + st.SlowHits; hits > 0 {
			fastPct = 100 * float64(st.FastHits) / float64(hits)
		}
		trName := "-"
		if s.tr != nil {
			trName = s.tr.Name()
		}
		t.AddRow(name, s.spec.Workload, trName, s.pol.Name(),
			st.Accesses, fastPct, st.GuestFaults, st.EPTFaults,
			millis(s.vm.Ledger.Total(hypervisor.CompTrack)),
			millis(s.vm.Ledger.Total(hypervisor.CompClassify)),
			millis(s.vm.Ledger.Total(hypervisor.CompMigrate)))
	}
	return t.String()
}

// infinity is the open upper bound of the last idle-age bucket.
const infinity = sim.Duration(math.MaxInt64)

// parseBuckets parses a memtierd-style idle-age bucket list: a
// comma-separated list of duration boundaries where a trailing "0"
// means "and everything older" (memtierd's `policy -dump accessed
// 0,5s,30s,10m,2h,24h,0` idiom). Boundaries must be strictly
// increasing.
func parseBuckets(spec string) ([]sim.Duration, error) {
	parts := strings.Split(spec, ",")
	if len(parts) < 2 {
		return nil, fmt.Errorf("daemon: want at least two bucket boundaries, got %q", spec)
	}
	bounds := make([]sim.Duration, len(parts))
	for i, p := range parts {
		b, err := sim.ParseDuration(p)
		if err != nil {
			return nil, fmt.Errorf("daemon: bucket %d: %w", i, err)
		}
		bounds[i] = b
	}
	if last := len(bounds) - 1; bounds[last] == 0 {
		bounds[last] = infinity
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("daemon: bucket boundaries must increase (%q)", spec)
		}
	}
	return bounds, nil
}

// idleAgeCounts buckets the VM's pages by idle age (now - last access)
// against bounds, adding each tracker counter's pages to its bucket.
// Mapped pages the tracker has never seen have no timestamp and count as
// "idle forever" in the oldest bucket — the page_idle convention.
func (d *Daemon) idleAgeCounts(s *vmState, bounds []sim.Duration) []uint64 {
	counts := make([]uint64, len(bounds)-1)
	now := d.eng.Now()
	var seenPages uint64
	if s.tr != nil {
		for _, c := range s.tr.Counters() {
			age := sim.Duration(now - c.LastSeen)
			for i := range counts {
				if age >= bounds[i] && age < bounds[i+1] {
					counts[i] += c.Pages()
					break
				}
			}
			seenPages += c.Pages()
		}
	}
	if mapped := s.vm.Proc.GPT.Mapped(); mapped > seenPages {
		counts[len(counts)-1] += mapped - seenPages
	}
	return counts
}

// dumpAccessed renders the idle-age histogram table for every VM,
// memtierd-style. The bucket counts are first published as obs gauges
// (idle_age_pages{vm,bucket}) and the table is rendered from the
// resulting snapshot, so anything else consuming the registry — the
// serve smoke job, a metrics dump — sees exactly what the table shows.
// Caller holds mu.
func (d *Daemon) dumpAccessed(spec string) (string, error) {
	bounds, err := parseBuckets(spec)
	if err != nil {
		return "", err
	}
	nBuckets := len(bounds) - 1
	bucketLabel := func(i int) string { return fmt.Sprintf("b%02d", i) }
	for _, name := range d.order {
		for i, n := range d.idleAgeCounts(d.vms[name], bounds) {
			d.o.Reg.Gauge("idle_age_pages", "vm", name, "bucket", bucketLabel(i)).Set(float64(n))
		}
	}

	snap := d.o.Reg.Snapshot()
	t := stats.NewTable("", "vm", "lastaccs>=[s]", "lastaccs<[s]", "pages", "mem[M]", "vmmem[%]")
	for _, name := range d.order {
		s := d.vms[name]
		mapped := s.vm.Proc.GPT.Mapped()
		for i := 0; i < nBuckets; i++ {
			m, ok := snap.Get("idle_age_pages", "vm="+name+",bucket="+bucketLabel(i))
			if !ok {
				return "", fmt.Errorf("daemon: gauge idle_age_pages{vm=%s,bucket=%s} missing from snapshot", name, bucketLabel(i))
			}
			pages := uint64(m.Value)
			hi := "inf"
			if bounds[i+1] != infinity {
				hi = formatSeconds(bounds[i+1])
			}
			pct := 0.0
			if mapped > 0 {
				pct = 100 * float64(pages) / float64(mapped)
			}
			t.AddRow(name, formatSeconds(bounds[i]), hi, pages,
				float64(pages)*4096/(1<<20), pct)
		}
	}
	return t.String(), nil
}
