// Package balloon implements tiered memory provisioning (TMP, §3.3): the
// legacy VirtIO memory balloon and the Demeter double balloon.
//
// Both devices move free guest pages into a balloon (inflation) so the
// host can reclaim their backing, and release them (deflation) when the
// guest should grow. The crucial difference is tier awareness:
//
//   - The legacy balloon is a single device. Inflation requests pages
//     from the guest allocator, which hands them out in its normal
//     preference order — fast node first. Asking the guest to shrink by
//     any amount therefore eats FMEM before SMEM, regardless of which
//     tier the host actually wanted back. This is the severe FMEM
//     under-provisioning Figure 6 quantifies.
//
//   - The Demeter balloon is one balloon per guest NUMA node, inflating
//     and deflating at page granularity on exactly the tier the host
//     targets. Each node's capacity is 100% of VM memory, so the FMEM:SMEM
//     composition can move smoothly between all-fast and all-slow.
//
// All operations are fully asynchronous (§3.3 "Efficiency Through Full
// Asynchrony"): the hypervisor posts requests on a virtqueue, the guest
// driver executes them from a workqueue after the notification latency,
// and completion interrupts release the host-side backing.
package balloon

import (
	"fmt"

	"demeter/internal/fault"
	"demeter/internal/hypervisor"
	"demeter/internal/mem"
	"demeter/internal/obs"
	"demeter/internal/sim"
	"demeter/internal/virtio"
)

// FaultOpTimeout stalls the guest driver's workqueue (direct reclaim,
// lock contention) so the operation finishes long after its deadline. The
// hypervisor-side watchdog must time out, poll, and in the worst case
// abort the wait — a stalled guest must never wedge QoS rebalancing.
var FaultOpTimeout = fault.Register("balloon.op-timeout", "balloon",
	"guest balloon op stalls magnitude × deadline past its budget", 0.1, 4)

// FaultStaleStats wedges the guest's telemetry publisher: a fired check
// suppresses that period's MemStats report, so the host keeps seeing the
// previous one and its When timestamp stagnates. Sustained firing is the
// "stale guest telemetry" signal the delegation health monitor watches.
// Default rate 0 — armed only by explicit failure scenarios.
var FaultStaleStats = fault.Register("guest.stale-stats", "balloon",
	"guest telemetry publisher wedges: stats reports stop refreshing while the fault fires", 0, 0)

// CompBalloon is the ledger component for balloon driver work.
const CompBalloon = "balloon"

// perPageCost is the guest driver's cost to reserve or restore one page.
const perPageCost = 150 * sim.Nanosecond

// Watchdog bounds: requestTimeout is how long the hypervisor waits for a
// balloon request beyond the transport and work costs, and maxRetries
// bounds timeout/poll rounds (and ring-full resubmissions) before the
// wait is abandoned.
const (
	requestTimeout = 300 * sim.Microsecond
	maxRetries     = 6
)

// request kinds on the balloon queue.
const (
	opInflate = iota
	opDeflate
)

type resizeBody struct {
	node  int // guest node to take pages from; -1 = allocator order
	count uint64
}

type resizeReply struct {
	frames []mem.Frame
}

// Balloon is one balloon device instance: the hypervisor-side control
// plane plus the guest driver state (the held-page list).
type Balloon struct {
	eng   *sim.Engine
	vm    *hypervisor.VM
	node  int // guest node this balloon targets; -1 = tier-unaware
	queue *virtio.Queue
	held  []mem.Frame

	// pending tracks submitted requests so Quiesce can reap completions
	// whose IRQ was lost or whose wait was abandoned.
	pending []*virtio.Request

	// Inflations/Deflations count completed page movements.
	Inflations, Deflations uint64
	// Shortfall counts pages requested for inflation that the guest
	// could not free.
	Shortfall uint64
	// Timeouts counts watchdog expiries; Recovered counts completions
	// reaped by a timeout-driven poll after a lost IRQ; Aborts counts
	// waits abandoned after maxRetries; Resubmits counts ring-full
	// retries.
	Timeouts, Recovered, Aborts, Resubmits uint64
}

// attach wires a balloon to a VM. The machine's fault injector (if any)
// is inherited by the transport and the driver model; when the machine
// has an observability sink, the balloon publishes its counters at
// snapshot time and journals completed operations.
func attach(eng *sim.Engine, vm *hypervisor.VM, node int, name string) *Balloon {
	b := &Balloon{
		eng:  eng,
		vm:   vm,
		node: node,
	}
	b.queue = virtio.NewQueue(eng, name, 64)
	b.queue.Fault = vm.Machine.Fault
	b.queue.SetHandler(b.guestHandle)
	if o := vm.Machine.Obs; o != nil {
		vmLabel := fmt.Sprintf("%d", vm.ID)
		nodeLabel := "legacy"
		switch node {
		case 0:
			nodeLabel = "fmem"
		case 1:
			nodeLabel = "smem"
		}
		o.Reg.OnSnapshot(func(r *obs.Registry) {
			labels := []string{"vm", vmLabel, "node", nodeLabel}
			r.Counter("balloon_inflations", labels...).Set(b.Inflations)
			r.Counter("balloon_deflations", labels...).Set(b.Deflations)
			r.Counter("balloon_shortfall", labels...).Set(b.Shortfall)
			r.Counter("balloon_timeouts", labels...).Set(b.Timeouts)
			r.Counter("balloon_recovered", labels...).Set(b.Recovered)
			r.Counter("balloon_aborts", labels...).Set(b.Aborts)
			r.Counter("balloon_resubmits", labels...).Set(b.Resubmits)
			r.Gauge("balloon_held_pages", labels...).Set(float64(b.Held()))
		})
	}
	return b
}

// journalOp records one completed balloon operation. Guest node is
// encoded as node+1 so the zero value means tier-unaware.
func (b *Balloon) journalOp(note string, pages uint64) {
	o := b.vm.Machine.Obs
	if o == nil {
		return
	}
	o.Journal.Append(obs.Event{
		At: b.eng.Now(), Type: obs.EvBalloonOp, VM: int32(b.vm.ID),
		Note: note, Arg1: pages, Arg2: uint64(b.node + 1),
	})
}

// NewLegacy attaches a tier-unaware VirtIO balloon.
func NewLegacy(eng *sim.Engine, vm *hypervisor.VM) *Balloon {
	return attach(eng, vm, -1, fmt.Sprintf("vm%d-virtio-balloon", vm.ID))
}

// Held returns the number of pages currently in the balloon.
func (b *Balloon) Held() uint64 { return uint64(len(b.held)) }

// guestHandle is the driver side: it runs after the kick latency and
// dispatches the actual reservation to the workqueue (modelled as a
// deferred completion after the work cost).
func (b *Balloon) guestHandle(req *virtio.Request) {
	body := req.Payload.(resizeBody)
	work := sim.Duration(body.count) * perPageCost
	b.vm.ChargeGuest(CompBalloon, work)
	delay := work
	if fired, magn := b.vm.Machine.Fault.FireMagnitude(FaultOpTimeout); fired {
		// Workqueue stall: the op completes eventually, but well past the
		// watchdog deadline. The stall is wait, not CPU — nothing extra is
		// charged to the guest ledger.
		delay += sim.Duration(magn * float64(b.deadline(work)))
	}
	b.eng.After(delay, func() {
		switch req.Kind {
		case opInflate:
			var frames []mem.Frame
			if body.node >= 0 {
				frames = b.vm.Kernel.ReserveFree(body.node, body.count)
			} else {
				// Tier-unaware: the allocator's preference order decides,
				// which means FMEM drains first.
				frames = b.vm.Kernel.ReserveFree(0, body.count)
				if missing := body.count - uint64(len(frames)); missing > 0 {
					frames = append(frames, b.vm.Kernel.ReserveFree(1, missing)...)
				}
			}
			b.held = append(b.held, frames...)
			b.Inflations += uint64(len(frames))
			b.Shortfall += body.count - uint64(len(frames))
			b.journalOp("inflate", uint64(len(frames)))
			req.Response = resizeReply{frames: frames}
		case opDeflate:
			n := body.count
			if n > uint64(len(b.held)) {
				n = uint64(len(b.held))
			}
			give := b.held[uint64(len(b.held))-n:]
			b.held = b.held[:uint64(len(b.held))-n]
			// When tier-targeted, return only this node's pages; the
			// held list is homogeneous by construction.
			b.vm.Kernel.Restore(give)
			b.Deflations += uint64(len(give))
			b.journalOp("deflate", uint64(len(give)))
			req.Response = resizeReply{}
		}
		b.queue.Complete(req)
	})
}

// deadline is the watchdog budget for one request: configured timeout
// plus a round trip of notifications plus generous headroom on the
// per-page work.
func (b *Balloon) deadline(work sim.Duration) sim.Duration {
	return requestTimeout + 2*(virtio.KickLatency+virtio.IRQLatency) + 4*work
}

// post submits req with bounded ring-full resubmission, then starts the
// completion watchdog. abort runs if the wait is ultimately abandoned —
// it must leave the caller in a sane (if degraded) state.
func (b *Balloon) post(req *virtio.Request, work sim.Duration, attempt int, abort func()) {
	if b.queue.Submit(req) {
		b.pending = append(b.pending, req)
		b.watch(req, b.deadline(work), 0, abort)
		return
	}
	if attempt >= maxRetries {
		b.Aborts++
		if abort != nil {
			abort()
		}
		return
	}
	b.Resubmits++
	back := sim.Backoff{Base: virtio.KickLatency, Max: 64 * virtio.KickLatency}
	b.eng.After(back.Delay(attempt), func() { b.post(req, work, attempt+1, abort) })
}

// watch is the completion watchdog: at each (exponentially backed off)
// deadline it polls the queue — reaping the request if its IRQ was lost —
// and after maxRetries rounds it gives up and aborts the wait. The
// request itself stays reapable by a later poll or Quiesce, so no state
// is lost even on abort.
func (b *Balloon) watch(req *virtio.Request, deadline sim.Duration, attempt int, abort func()) {
	back := sim.Backoff{Base: deadline, Max: 16 * deadline}
	b.eng.After(back.Delay(attempt), func() {
		recoveredBefore := b.queue.Stats().PollRecovered
		if b.queue.Poll(req) {
			if b.queue.Stats().PollRecovered > recoveredBefore {
				b.Recovered++
			}
			return
		}
		b.Timeouts++
		if attempt >= maxRetries {
			b.Aborts++
			if abort != nil {
				abort()
			}
			return
		}
		b.watch(req, deadline, attempt+1, abort)
	})
}

// Quiesce polls every tracked request, reaping completions the initiator
// never consumed (lost IRQs, abandoned waits), and returns how many are
// still genuinely in flight. Experiments call it at teardown before the
// frame-accounting audits.
func (b *Balloon) Quiesce() int {
	kept := b.pending[:0]
	for _, r := range b.pending {
		if !b.queue.Poll(r) {
			kept = append(kept, r)
		}
	}
	b.pending = kept
	return len(b.pending)
}

// QueueStats exposes the transport counters (tests and chaos reports).
func (b *Balloon) QueueStats() virtio.Stats { return b.queue.Stats() }

// Inflight returns the balloon virtqueue's outstanding request count.
func (b *Balloon) Inflight() int { return b.queue.Inflight() }

// Inflate asks the guest to move count pages into the balloon; when the
// completion interrupt arrives the hypervisor reclaims their backing and
// calls onDone with the number of pages actually freed. onDone fires
// exactly once even if the wait times out before the guest finishes — in
// that case with freed=0, and the host reclaims the backing whenever the
// late completion is finally reaped.
func (b *Balloon) Inflate(count uint64, onDone func(freed uint64)) {
	done := false
	fire := func(freed uint64) {
		if done {
			return
		}
		done = true
		if onDone != nil {
			onDone(freed)
		}
	}
	req := &virtio.Request{
		Kind:    opInflate,
		Payload: resizeBody{node: b.node, count: count},
		OnComplete: func(r *virtio.Request) {
			// Reclaim runs even after an aborted wait: page accounting
			// must hold no matter how late the guest answers.
			frames := r.Response.(resizeReply).frames
			b.vm.ReleaseGuestFrames(frames)
			fire(uint64(len(frames)))
		},
	}
	b.post(req, sim.Duration(count)*perPageCost, 0, func() { fire(0) })
}

// Deflate returns count pages from the balloon to the guest allocator.
// Like Inflate, onDone fires exactly once, worst case on watchdog abort.
func (b *Balloon) Deflate(count uint64, onDone func()) {
	done := false
	fire := func() {
		if done {
			return
		}
		done = true
		if onDone != nil {
			onDone()
		}
	}
	req := &virtio.Request{
		Kind:       opDeflate,
		Payload:    resizeBody{node: b.node, count: count},
		OnComplete: func(*virtio.Request) { fire() },
	}
	b.post(req, sim.Duration(count)*perPageCost, 0, fire)
}

// MemStats is the guest telemetry published on the statistics queue
// (§3.3 "QoS Policy Support").
type MemStats struct {
	FreeFMEM, FreeSMEM       uint64
	BalloonFMEM, BalloonSMEM uint64
	// SlowShare is the fraction of recent accesses served from SMEM — a
	// direct memory-pressure signal for cross-VM QoS scheduling.
	SlowShare float64
	// When is the publication timestamp.
	When sim.Time
}

// Double is the Demeter balloon: one balloon per guest NUMA node plus the
// statistics queue.
type Double struct {
	FMEM, SMEM *Balloon

	vm           *hypervisor.VM
	eng          *sim.Engine
	statsQ       *virtio.Queue
	statsPending []*virtio.Request
	latest       MemStats
	hasStats     bool
	publisher    *sim.Ticker
	lastFast     uint64
	lastSlow     uint64
}

// NewDouble attaches the double balloon to a VM.
func NewDouble(eng *sim.Engine, vm *hypervisor.VM) *Double {
	d := &Double{
		FMEM: attach(eng, vm, 0, fmt.Sprintf("vm%d-demeter-balloon-fmem", vm.ID)),
		SMEM: attach(eng, vm, 1, fmt.Sprintf("vm%d-demeter-balloon-smem", vm.ID)),
		vm:   vm,
		eng:  eng,
	}
	d.statsQ = virtio.NewQueue(eng, fmt.Sprintf("vm%d-demeter-stats", vm.ID), 16)
	d.statsQ.Fault = vm.Machine.Fault
	// The host is the responder on the stats queue: it files the report.
	d.statsQ.SetHandler(func(req *virtio.Request) {
		d.latest = req.Payload.(MemStats)
		d.hasStats = true
		d.statsQ.Complete(req)
	})
	return d
}

// StartStats begins periodic guest telemetry publication.
func (d *Double) StartStats(period sim.Duration) {
	if d.publisher != nil {
		panic("balloon: stats publisher started twice")
	}
	d.publisher = d.eng.StartTicker(period, func(now sim.Time) {
		if d.vm.Machine.Fault.Fire(FaultStaleStats) {
			return // publisher wedged: the host keeps the stale report
		}
		st := d.vm.Stats()
		fast, slow := st.FastHits-d.lastFast, st.SlowHits-d.lastSlow
		d.lastFast, d.lastSlow = st.FastHits, st.SlowHits
		var slowShare float64
		if fast+slow > 0 {
			slowShare = float64(slow) / float64(fast+slow)
		}
		freeF, freeS := d.vm.GuestFreeFrames()
		d.vm.ChargeGuest(CompBalloon, 500) // stat collection cost
		// Reap reports whose completion IRQ was dropped before posting a
		// new one, so lost interrupts can never clog the small stats ring.
		d.reapStats()
		req := &virtio.Request{Payload: MemStats{
			FreeFMEM:    freeF,
			FreeSMEM:    freeS,
			BalloonFMEM: d.FMEM.Held(),
			BalloonSMEM: d.SMEM.Held(),
			SlowShare:   slowShare,
			When:        now,
		}}
		if d.statsQ.Submit(req) {
			d.statsPending = append(d.statsPending, req)
		}
	})
}

// StopStats ends telemetry publication.
func (d *Double) StopStats() {
	if d.publisher != nil {
		d.publisher.Stop()
		d.publisher = nil
	}
}

// LatestStats returns the most recent guest report.
func (d *Double) LatestStats() (MemStats, bool) { return d.latest, d.hasStats }

// reapStats polls outstanding stats reports, pruning consumed ones.
func (d *Double) reapStats() int {
	kept := d.statsPending[:0]
	for _, r := range d.statsPending {
		if !d.statsQ.Poll(r) {
			kept = append(kept, r)
		}
	}
	d.statsPending = kept
	return len(d.statsPending)
}

// Quiesce reaps lost completions on all three queues (both balloons and
// the stats queue) and returns the number of requests still genuinely in
// flight. Call at teardown before frame-accounting audits.
func (d *Double) Quiesce() int {
	return d.FMEM.Quiesce() + d.SMEM.Quiesce() + d.reapStats()
}

// Inflight returns outstanding requests across both balloons and the
// statistics queue.
func (d *Double) Inflight() int {
	return d.FMEM.Inflight() + d.SMEM.Inflight() + d.statsQ.Inflight()
}

// StatsQueueStats exposes the statistics virtqueue's transport counters.
func (d *Double) StatsQueueStats() virtio.Stats { return d.statsQ.Stats() }

// SetProvision resizes both balloons so the guest's usable memory is
// exactly (fmemFrames, smemFrames). Each guest node's capacity is the
// maximum; the balloons hold the rest. onDone fires when both balloons
// have settled (or their watchdogs gave up — it always fires).
//
// Deflations run before inflations: when a rebalance both grows one tier
// and shrinks the other, the guest receives memory before any is taken
// away, so a guest under pressure is never squeezed while it waits.
func (d *Double) SetProvision(fmemFrames, smemFrames uint64, onDone func()) {
	var deflates, inflates []func(done func())
	plan := func(b *Balloon, provision uint64) {
		capacity := d.vm.Kernel.Topo.Nodes[b.node].Frames()
		if provision > capacity {
			panic(fmt.Sprintf("balloon: provision %d exceeds node capacity %d", provision, capacity))
		}
		targetHeld := capacity - provision
		switch held := b.Held(); {
		case targetHeld < held:
			n := held - targetHeld
			deflates = append(deflates, func(done func()) { b.Deflate(n, done) })
		case targetHeld > held:
			n := targetHeld - held
			inflates = append(inflates, func(done func()) { b.Inflate(n, func(uint64) { done() }) })
		}
	}
	plan(d.FMEM, fmemFrames)
	plan(d.SMEM, smemFrames)

	finish := func() {
		if onDone != nil {
			onDone()
		}
	}
	if len(deflates) == 0 && len(inflates) == 0 {
		d.eng.After(0, finish)
		return
	}
	runPhase := func(jobs []func(done func()), then func()) {
		if len(jobs) == 0 {
			then()
			return
		}
		pending := len(jobs)
		for _, j := range jobs {
			j(func() {
				if pending--; pending == 0 {
					then()
				}
			})
		}
	}
	runPhase(deflates, func() { runPhase(inflates, finish) })
}
