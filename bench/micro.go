package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"demeter/internal/balloon"
	"demeter/internal/core"
	"demeter/internal/engine"
	"demeter/internal/guestos"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/obs"
	"demeter/internal/pebs"
	"demeter/internal/policy"
	"demeter/internal/sim"
	"demeter/internal/tlb"
	"demeter/internal/track"
	"demeter/internal/workload"
)

// The micro table times one public function of one layer per entry over
// a fixed operation count. Each entry states what a single operation is;
// the counts are sized so the whole table runs in a few seconds, and
// smoke runs divide them by microSmokeDiv.
const microSmokeDiv = 200

// sink keeps results of timed calls live so the compiler cannot drop them.
var sink uint64

// micro runs the whole table and returns each entry's value by metric
// name.
func micro(smoke bool) map[string]float64 {
	ops := func(n int) int {
		if smoke {
			n /= microSmokeDiv
		}
		if n < 1 {
			n = 1
		}
		return n
	}
	out := map[string]float64{}
	microAccess(out, ops)
	microTLB(out, ops)
	microTierRange(out, ops)
	microPEBS(out, ops)
	microFill(out, ops)
	microRangeTree(out, ops)
	microBalloon(out, ops)
	microSim(out, ops)
	microObs(out, ops)
	microTrackPolicy(out, smoke)
	return out
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// accessVM is the VM and GUPS stream the access-path gate in
// `demeter-sim bench` measures (BENCH_baseline.json), with obs attached.
func accessVM() (*hypervisor.VM, *workload.GUPS) {
	eng := sim.NewEngine()
	m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(22000, 110000))
	m.AttachObs(obs.New(0))
	vm, err := m.NewVM(hypervisor.VMConfig{VCPUs: 4, GuestFMEM: 22000, GuestSMEM: 110000, FMEMBacking: 0, SMEMBacking: 1})
	if err != nil {
		panic(err)
	}
	wl := workload.Must(workload.NewGUPS(114688, 1<<40, 1))
	wl.Setup(vm.Proc)
	return vm, wl
}

// microAccess times the scalar and batched access paths after the init
// sweep has mapped the table; Fill is outside the timed region (the
// workload.fill entries measure it). It then times the 2D walk, GPT then
// EPT lookup, over pages of the same stream.
func microAccess(out map[string]float64, ops func(int) int) {
	buf := make([]workload.Access, 4096)
	warm := func(vm *hypervisor.VM, wl *workload.GUPS) {
		for done := uint64(0); done < wl.InitOps(); {
			n, _ := wl.Fill(buf)
			vm.AccessBatch(buf[:n])
			done += uint64(n)
		}
	}

	vm, wl := accessVM()
	warm(vm, wl)
	var took time.Duration
	n := ops(2_000_000)
	done := 0
	for done < n {
		k, _ := wl.Fill(buf)
		start := time.Now()
		for _, a := range buf[:k] {
			vm.Access(a.GVA, a.Write)
		}
		took += time.Since(start)
		done += k
	}
	out["hypervisor.access_ns"] = nsPer(took, done)

	vm, wl = accessVM()
	warm(vm, wl)
	took, done = 0, 0
	for done < n {
		k, _ := wl.Fill(buf)
		start := time.Now()
		vm.AccessBatch(buf[:k])
		took += time.Since(start)
		done += k
	}
	out["hypervisor.access_batch_ns"] = nsPer(took, done)

	pages := make([]uint64, 0, 65536)
	for len(pages) < cap(pages) {
		k, _ := wl.Fill(buf)
		for _, a := range buf[:k] {
			pages = append(pages, a.GVA/mem.PageSize)
		}
	}
	pages = pages[:cap(pages)]
	n = ops(2_000_000)
	start := time.Now()
	for i := 0; i < n; i++ {
		if ge := vm.Proc.GPT.Lookup(pages[i&(len(pages)-1)]); ge != nil {
			if he := vm.EPT.Lookup(ge.Value()); he != nil {
				sink += he.Value()
			}
		}
	}
	out["pagetable.walk2d_ns"] = nsPer(time.Since(start), n)
}

// microTLB times a hit on a resident entry, and a miss followed by the
// insert that fills it.
func microTLB(out map[string]float64, ops func(int) int) {
	rng := rand.New(rand.NewPCG(1, 2))
	t := tlb.NewDefault()
	const resident = 8192 // half the default capacity: every lookup hits
	order := make([]uint64, resident)
	for i := range order {
		t.Insert(uint64(i), uint64(i)+1)
		order[i] = uint64(i)
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	n := ops(4_000_000)
	start := time.Now()
	for i := 0; i < n; i++ {
		hpfn, _ := t.Lookup(order[i&(resident-1)])
		sink += hpfn
	}
	out["tlb.lookup_hit_ns"] = nsPer(time.Since(start), n)

	keys := make([]uint64, 1<<16)
	for i := range keys {
		keys[i] = rng.Uint64N(1 << 24)
	}
	t = tlb.NewDefault()
	n = ops(2_000_000)
	start = time.Now()
	for i := 0; i < n; i++ {
		gvpn := keys[i&(len(keys)-1)] + uint64(i>>16)<<24
		if _, ok := t.Lookup(gvpn); !ok {
			t.Insert(gvpn, gvpn)
		}
	}
	out["tlb.lookup_miss_insert_ns"] = nsPer(time.Since(start), n)
}

// microTierRange times the tier lookup over frames of both tiers.
func microTierRange(out map[string]float64, ops func(int) int) {
	topo := mem.PaperDRAMPMEM(22000, 110000)
	rng := rand.New(rand.NewPCG(3, 4))
	frames := make([]mem.Frame, 4096)
	for i := range frames {
		frames[i] = mem.Frame(rng.Uint64N(topo.TotalFrames()))
	}
	n := ops(4_000_000)
	start := time.Now()
	for i := 0; i < n; i++ {
		_, hi, lat, _ := topo.TierRange(frames[i&(len(frames)-1)])
		sink += uint64(hi) + uint64(lat)
	}
	out["mem.tier_range_ns"] = nsPer(time.Since(start), n)
}

// microPEBS times Record on qualifying loads at the quick scale's
// sample period (the PMI handler drains a full buffer), and Drain per
// sample it returns.
func microPEBS(out map[string]float64, ops func(int) int) {
	u, err := pebs.NewUnit(pebs.ConfigWithPeriod(31))
	if err != nil {
		panic(err)
	}
	if err := u.Arm(); err != nil {
		panic(err)
	}
	u.OnPMI = func() { sink += uint64(len(u.Drain())) }
	n := ops(4_000_000)
	start := time.Now()
	for i := 0; i < n; i++ {
		u.Record(uint64(i)&0xffff, 100, i&1 == 0)
	}
	out["pebs.record_ns"] = nsPer(time.Since(start), n)

	u, err = pebs.NewUnit(pebs.ConfigWithPeriod(1))
	if err != nil {
		panic(err)
	}
	if err := u.Arm(); err != nil {
		panic(err)
	}
	var took time.Duration
	var drained int
	for r := 0; r < ops(20_000); r++ {
		for i := 0; i < 256; i++ {
			u.Record(uint64(i), 100, false)
		}
		start := time.Now()
		s := u.Drain()
		took += time.Since(start)
		drained += len(s)
	}
	out["pebs.drain_ns_per_sample"] = nsPer(took, drained)
}

// fillApps are the workloads whose Fill is timed; sizes follow the
// quick scale's NewApp footprints, with an unbounded operation count.
var fillApps = []struct {
	name string
	make func() (workload.Workload, error)
}{
	{"gups", func() (workload.Workload, error) { return workload.NewGUPS(28672, 1<<40, 1) }},
	{"btree", func() (workload.Workload, error) { return workload.NewBTree(28000*63/64, 1<<40, 1) }},
	{"silo", func() (workload.Workload, error) { return workload.NewSilo(28000, 1<<40, 1) }},
	{"bwaves", func() (workload.Workload, error) { return workload.NewBwaves(28000/3, 1<<40, 1) }},
	{"xsbench", func() (workload.Workload, error) { return workload.NewXSBench(28000*20/21, 1<<40, 1) }},
	{"graph500", func() (workload.Workload, error) { return workload.NewGraph500(28000/5, 1<<40, 1) }},
	{"pagerank", func() (workload.Workload, error) { return workload.NewPageRank(28000, 1<<40, 1) }},
	{"liblinear", func() (workload.Workload, error) { return workload.NewLibLinear(28000*50/51, 1<<40, 1) }},
	{"ycsb-a", func() (workload.Workload, error) { return workload.NewYCSB(28000, 1<<40, 1, workload.YCSBA) }},
}

// microFill times each workload's Fill per access generated, past its
// init sweep, into an engine-sized batch.
func microFill(out map[string]float64, ops func(int) int) {
	buf := make([]workload.Access, engine.DefaultBatchSize)
	for _, app := range fillApps {
		wl, err := app.make()
		if err != nil {
			panic(err)
		}
		wl.Setup(guestos.NewKernel(mem.PaperDRAMPMEM(1, 1)).NewProcess(app.name))
		for done := uint64(0); done < wl.InitOps(); {
			n, _ := wl.Fill(buf)
			done += uint64(n)
		}
		n, done := ops(1_000_000), 0
		start := time.Now()
		for done < n {
			k, _ := wl.Fill(buf)
			done += k
		}
		out["workload.fill_ns."+app.name] = nsPer(time.Since(start), done)
	}
}

// microRangeTree feeds Demeter's range tree skewed samples (nine in ten
// land in a hot tenth of the region) and ends an epoch every 8192
// samples, timing Record and EndEpoch separately.
func microRangeTree(out map[string]float64, ops func(int) int) {
	params := core.DefaultParams()
	params.GranularityPages = 128
	const pages = 28672
	t := core.NewRangeTree(params, core.Region{StartPage: 0, EndPage: pages})
	rng := rand.New(rand.NewPCG(5, 6))
	samples := make([]uint64, 8192)
	var recTook, endTook time.Duration
	epochs := ops(300)
	for e := 0; e < epochs; e++ {
		for i := range samples {
			if rng.IntN(10) < 9 {
				samples[i] = pages/10 + rng.Uint64N(pages/10)
			} else {
				samples[i] = rng.Uint64N(pages)
			}
		}
		start := time.Now()
		for _, p := range samples {
			t.Record(p)
		}
		recTook += time.Since(start)
		start = time.Now()
		t.EndEpoch(4)
		endTook += time.Since(start)
	}
	out["core.rangetree_record_ns"] = nsPer(recTook, epochs*len(samples))
	out["core.end_epoch_us"] = nsPer(endTook, epochs) / 1e3
}

// elasticVM boots a quick-scale VM at full capacity on both guest nodes
// with a settled double balloon holding everything above the provision.
func elasticVM(eng *sim.Engine, m *hypervisor.Machine) *hypervisor.VM {
	s := clusterScale(false)
	total := s.VMFMEM + s.VMSMEM
	vm, err := m.NewVM(hypervisor.VMConfig{VCPUs: 4, GuestFMEM: total, GuestSMEM: total, FMEMBacking: 0, SMEMBacking: 1})
	if err != nil {
		panic(err)
	}
	settled := false
	balloon.NewDouble(eng, vm).SetProvision(s.VMFMEM, s.VMSMEM, func() { settled = true })
	for !settled && eng.Step() {
	}
	return vm
}

// microBalloon times BalloonedOn with the elastic balloon held, and a
// balloon inflate and deflate per page, virtqueue round trips included.
func microBalloon(out map[string]float64, ops func(int) int) {
	eng := sim.NewEngine()
	m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(33000, 33000))
	vm := elasticVM(eng, m)
	n := ops(200)
	start := time.Now()
	for i := 0; i < n; i++ {
		sink += vm.Kernel.BalloonedOn(0)
	}
	out["guestos.ballooned_on_us"] = nsPer(time.Since(start), n) / 1e3

	vm, err := m.NewVM(hypervisor.VMConfig{VCPUs: 4, GuestFMEM: 16384, GuestSMEM: 16384, FMEMBacking: 0, SMEMBacking: 1})
	if err != nil {
		panic(err)
	}
	b := balloon.NewDouble(eng, vm).FMEM
	var inflate, deflate time.Duration
	pages := uint64(ops(16000))
	rounds := 20
	for i := 0; i < rounds; i++ {
		done := false
		start := time.Now()
		b.Inflate(pages, func(uint64) { done = true })
		for !done && eng.Step() {
		}
		inflate += time.Since(start)
		done = false
		start = time.Now()
		b.Deflate(pages, func() { done = true })
		for !done && eng.Step() {
		}
		deflate += time.Since(start)
	}
	out["balloon.inflate_ns_per_page"] = nsPer(inflate, rounds*int(pages))
	out["balloon.deflate_ns_per_page"] = nsPer(deflate, rounds*int(pages))
}

// microSim times one After plus the Step that dispatches it, with 64
// self-rescheduling events pending.
func microSim(out map[string]float64, ops func(int) int) {
	eng := sim.NewEngine()
	for i := 0; i < 64; i++ {
		d := sim.Duration(100 + 37*i)
		var fn func()
		fn = func() { eng.After(d, fn) }
		eng.After(d, fn)
	}
	n := ops(4_000_000)
	start := time.Now()
	for i := 0; i < n; i++ {
		eng.Step()
	}
	out["sim.after_step_ns"] = nsPer(time.Since(start), n)
}

// microObs times a registry snapshot of a nine-VM elastic machine.
func microObs(out map[string]float64, ops func(int) int) {
	eng := sim.NewEngine()
	s := clusterScale(false)
	m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(s.VMFMEM*9, s.VMSMEM*9))
	o := obs.New(0)
	m.AttachObs(o)
	for i := 0; i < 9; i++ {
		vm := elasticVM(eng, m)
		x := engine.NewExecutor(eng, vm, workload.Must(workload.NewGUPS(1024, 1<<40, uint64(i)+1)))
		x.PublishObs(o, fmt.Sprintf("%d", vm.ID))
	}
	n := ops(400)
	start := time.Now()
	for i := 0; i < n; i++ {
		sink += uint64(len(o.Reg.Snapshot().Metrics))
	}
	out["obs.snapshot_us"] = nsPer(time.Since(start), n) / 1e3
}

// timedTracker is the bench-side track.Tracker wrapper: it times every
// Counters call the policy makes and flags the engine step that made it,
// which is that policy's round.
type timedTracker struct {
	track.Tracker
	calls  int
	took   time.Duration
	called bool
}

func (t *timedTracker) Counters() []track.Counter {
	start := time.Now()
	c := t.Tracker.Counters()
	t.took += time.Since(start)
	t.calls++
	t.called = true
	return c
}

// trackerRig runs one serve-sized VM (GUPS over 6000 pages) under a
// tracker × policy pairing for a warm-up, then steps it for the measured
// window. It returns the wrapper's Counters timing and the mean host
// time of the steps that were policy rounds.
func trackerRig(trackerKind, policyKind string, window sim.Duration) (countersUs, roundUs float64) {
	eng := sim.NewEngine()
	m := hypervisor.NewMachine(eng, mem.PaperDRAMPMEM(8192, 65536))
	vm, err := m.NewVM(hypervisor.VMConfig{VCPUs: 4, GuestFMEM: 1024, GuestSMEM: 8192, FMEMBacking: 0, SMEMBacking: 1})
	if err != nil {
		panic(err)
	}
	x := engine.NewExecutor(eng, vm, workload.Must(workload.NewGUPS(6000, 1<<40, 1)))
	cfg := track.Config{Kind: trackerKind, Period: sim.Millisecond, Seed: 2}
	if trackerKind == "pebs" {
		cfg.SamplePeriod = 97
	}
	inner, err := track.New(cfg)
	if err != nil {
		panic(err)
	}
	if err := inner.Attach(eng, vm); err != nil {
		panic(err)
	}
	tr := &timedTracker{Tracker: inner}
	pol, err := policy.New(policy.Config{Kind: policyKind, Period: 2 * sim.Millisecond, MigrationBatch: 64})
	if err != nil {
		panic(err)
	}
	if err := pol.Attach(eng, vm, tr); err != nil {
		panic(err)
	}
	x.Start()
	eng.Run(eng.Now() + window)
	tr.calls, tr.took = 0, 0
	var rounds int
	var roundTook time.Duration
	end := eng.Now() + window
	for eng.Now() < end {
		tr.called = false
		start := time.Now()
		if !eng.Step() {
			break
		}
		if tr.called {
			roundTook += time.Since(start)
			rounds++
		}
	}
	pol.Detach()
	inner.Detach()
	x.Stop()
	if tr.calls == 0 || rounds == 0 {
		panic(fmt.Sprintf("%s×%s made no policy rounds", trackerKind, policyKind))
	}
	return nsPer(tr.took, tr.calls) / 1e3, nsPer(roundTook, rounds) / 1e3
}

// microTrackPolicy times each tracker's Counters under the heat policy,
// and each driven policy's round over the A-bit tracker.
func microTrackPolicy(out map[string]float64, smoke bool) {
	window := 40 * sim.Millisecond
	if smoke {
		window = 4 * sim.Millisecond
	}
	for _, kind := range track.Kinds() {
		us, _ := trackerRig(kind, "heat", window)
		out["track.counters_us."+kind] = us
	}
	for _, kind := range []string{"age", "heat", "ranked", "threshold"} {
		_, us := trackerRig("abit", kind, window)
		out["policy.round_us."+kind] = us
	}
}
