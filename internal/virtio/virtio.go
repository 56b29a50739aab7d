// Package virtio models the paravirtual transport the Demeter balloon is
// built on (§3.3 "Efficiency Through Full Asynchrony"): a descriptor queue
// between an initiator and a responder, with asynchronous notification in
// both directions. In the real system the hypervisor posts requests to a
// VirtIO queue (raising an interrupt in the guest), the guest driver
// executes them on a kernel workqueue, and completions flow back through
// the queue where the hypervisor observes them via epoll() on an eventfd.
// The model keeps that structure — submissions and completions are
// simulator events separated by notification latencies — so that balloon
// operations are genuinely non-blocking for both sides.
package virtio

import (
	"fmt"

	"demeter/internal/fault"
	"demeter/internal/sim"
)

// Fault points for the transport. A stalled kick delays responder-side
// delivery by magnitude × KickLatency (a preempted vhost thread); a
// dropped completion loses the IRQ so the initiator only learns of the
// finished request by polling (Poll), the way a real driver recovers from
// a lost interrupt.
var (
	FaultQueueStall = fault.Register("virtio.queue-stall", "virtio",
		"kick delivery stalled by magnitude × kick latency", 0.05, 64)
	FaultCompletionDrop = fault.Register("virtio.completion-drop", "virtio",
		"completion IRQ lost; request only reapable by polling", 0.05, 0)
)

// Request is one descriptor chain in flight.
type Request struct {
	// Kind tags the operation (device-specific).
	Kind int
	// Payload carries the operation body (device-specific).
	Payload interface{}
	// Response is filled by the responder before Complete.
	Response interface{}
	// OnComplete runs on the initiator side after the completion
	// notification is delivered (or the request is reaped via Poll).
	OnComplete func(*Request)

	completed bool // responder finished the work
	consumed  bool // initiator observed the completion (IRQ or Poll)
	irqLost   bool // completion IRQ was dropped by a fault
}

// Done reports whether the responder has finished the request, regardless
// of whether the initiator has seen the completion yet.
func (r *Request) Done() bool { return r.completed }

// Stats counts queue activity.
type Stats struct {
	Submitted uint64
	Completed uint64
	Kicks     uint64 // initiator→responder notifications
	IRQs      uint64 // responder→initiator notifications
	Rejected  uint64 // submissions dropped on a full ring

	StalledKicks  uint64 // kicks delayed by an injected stall
	DroppedIRQs   uint64 // completion notifications lost to a fault
	Polls         uint64 // initiator-side Poll calls
	PollRecovered uint64 // completions reaped by Poll after a lost IRQ
}

// Queue is a single virtqueue. Handler runs on the responder side for each
// delivered request; it may complete the request synchronously or hold it
// and call Complete later (fully asynchronous responder).
type Queue struct {
	eng  *sim.Engine
	name string
	size int

	// Fault, when non-nil, injects transport failures (stalls, lost
	// IRQs). Nil-safe: a nil injector never fires.
	Fault *fault.Injector

	handler  func(*Request)
	inflight int
	stats    Stats
}

// Notification latencies roughly model an eventfd wakeup and an
// interrupt injection.
const (
	// KickLatency is the initiator→responder notification delay (VM exit
	// or eventfd wakeup + scheduling).
	KickLatency = 4 * sim.Microsecond
	// IRQLatency is the completion notification delay (interrupt
	// injection or epoll wakeup).
	IRQLatency = 4 * sim.Microsecond
)

// NewQueue creates a queue with the given descriptor ring size. The
// responder's handler must be installed with SetHandler before the first
// Submit.
func NewQueue(eng *sim.Engine, name string, size int) *Queue {
	if size <= 0 {
		panic("virtio: queue size must be positive")
	}
	return &Queue{
		eng:  eng,
		name: name,
		size: size,
	}
}

// SetHandler installs the responder-side consumer.
func (q *Queue) SetHandler(fn func(*Request)) { q.handler = fn }

// Name returns the queue's label.
func (q *Queue) Name() string { return q.name }

// Stats returns a copy of the counters.
func (q *Queue) Stats() Stats { return q.stats }

// Inflight returns the number of submitted-but-not-completed requests.
func (q *Queue) Inflight() int { return q.inflight }

// Submit posts a request. It returns false (and drops the request) when
// the descriptor ring is full — the initiator is expected to retry after
// completions free descriptors, exactly like a real driver.
func (q *Queue) Submit(req *Request) bool {
	if q.handler == nil {
		panic(fmt.Sprintf("virtio: queue %q has no responder handler", q.name))
	}
	if q.inflight >= q.size {
		q.stats.Rejected++
		return false
	}
	q.inflight++
	q.stats.Submitted++
	q.stats.Kicks++
	delay := KickLatency
	if fired, magn := q.Fault.FireMagnitude(FaultQueueStall); fired {
		q.stats.StalledKicks++
		delay += sim.Duration(magn * float64(KickLatency))
	}
	q.eng.After(delay, func() { q.handler(req) })
	return true
}

// Complete finishes a request from the responder side; the initiator's
// OnComplete callback runs after the IRQ latency. Completing a request
// twice panics — it would corrupt descriptor accounting. When the
// completion-drop fault fires, the work is done but the IRQ never
// arrives: the descriptor stays inflight until the initiator reaps it
// with Poll.
func (q *Queue) Complete(req *Request) {
	if req.completed {
		panic(fmt.Sprintf("virtio: double completion on queue %q", q.name))
	}
	req.completed = true
	if q.Fault.Fire(FaultCompletionDrop) {
		req.irqLost = true
		q.stats.DroppedIRQs++
		return
	}
	q.eng.After(IRQLatency, func() { q.reap(req, true) })
}

// reap consumes one finished request on the initiator side, exactly once:
// the IRQ path and the Poll path can race (the IRQ may already be
// scheduled when a timeout-driven Poll arrives), and whichever lands
// first wins.
func (q *Queue) reap(req *Request, viaIRQ bool) {
	if req.consumed {
		return
	}
	req.consumed = true
	q.inflight--
	q.stats.Completed++
	if viaIRQ {
		q.stats.IRQs++
	}
	if req.OnComplete != nil {
		req.OnComplete(req)
	}
}

// Poll lets the initiator check a request's state directly (reading the
// used ring), the standard recovery path for a lost completion
// interrupt. It reports whether the request has been consumed; if the
// responder had finished but the IRQ was lost, Poll reaps the request
// now (running OnComplete synchronously).
func (q *Queue) Poll(req *Request) bool {
	q.stats.Polls++
	if req.consumed {
		return true
	}
	if !req.completed {
		return false
	}
	if req.irqLost {
		q.stats.PollRecovered++
	}
	q.reap(req, false)
	return true
}
