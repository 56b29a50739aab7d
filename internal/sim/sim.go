// Package sim is the discrete-event core of the simulator. It provides a
// virtual clock in nanoseconds, an event queue with deterministic FIFO
// ordering among simultaneous events, repeating tickers, and CPU-time
// ledgers that attribute simulated work to named components (the data
// source for the paper's Figure 2 and Figure 7 overhead studies).
package sim

import (
	"fmt"
	"sort"
)

// Time is a point in simulated time, in nanoseconds since engine start.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration = Time

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps, for determinism
	fn  func()
}

// eventQueue is a binary min-heap of events by (at, seq), stored by value
// in one slice: no per-event allocation, no container/heap interface
// boxing. The ordering is identical to the previous container/heap
// implementation, so event dispatch order (and with it every experiment's
// output) is unchanged.
type eventQueue []event

func (q eventQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (q eventQueue) siftDown(i int) {
	n := len(q)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && q.less(right, left) {
			least = right
		}
		if !q.less(least, i) {
			return
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
}

// Engine owns the virtual clock and event queue. It is not safe for
// concurrent use: the whole simulation is single-threaded by design so that
// results are bit-reproducible.
type Engine struct {
	now    Time
	queue  eventQueue
	seq    uint64
	events uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// EventsProcessed returns the total number of dispatched events.
func (e *Engine) EventsProcessed() uint64 { return e.events }

// Schedule runs fn at time at. Scheduling in the past panics: it would
// silently reorder causality.
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	e.queue = append(e.queue, event{at: at, seq: e.seq, fn: fn})
	e.queue.siftUp(len(e.queue) - 1)
}

// After runs fn d nanoseconds from now.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, fn)
}

// Step dispatches the next event, advancing the clock to its timestamp.
// It reports whether an event was dispatched.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue[0]
	n := len(e.queue) - 1
	e.queue[0] = e.queue[n]
	e.queue[n] = event{} // release the fn reference
	e.queue = e.queue[:n]
	e.queue.siftDown(0)
	e.now = ev.at
	e.events++
	ev.fn()
	return true
}

// Run dispatches events until the queue is empty or the clock would pass
// until. It returns the time at which it stopped.
func (e *Engine) Run(until Time) Time {
	for len(e.queue) > 0 && e.queue[0].at <= until {
		e.Step()
	}
	if e.now < until && len(e.queue) == 0 {
		// Queue drained before the horizon; leave the clock at the last
		// event rather than jumping forward, so callers can detect idling.
		return e.now
	}
	if e.now < until {
		e.now = until
	}
	return e.now
}

// RunUntilIdle dispatches events until none remain.
func (e *Engine) RunUntilIdle() {
	for e.Step() {
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// Ticker schedules fn every period until Stop is called. The first firing
// happens one period from the time StartTicker is called.
type Ticker struct {
	stopped bool
}

// Stop cancels future firings.
func (t *Ticker) Stop() { t.stopped = true }

// StartTicker begins a repeating callback. fn receives the firing time.
func (e *Engine) StartTicker(period Duration, fn func(now Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{}
	var tick func()
	tick = func() {
		if t.stopped {
			return
		}
		fn(e.now)
		if !t.stopped {
			e.After(period, tick)
		}
	}
	e.After(period, tick)
	return t
}

// Backoff is a capped exponential backoff schedule shared by the retry
// paths (balloon request re-polls, relocation requeues). Delays double per
// attempt from Base up to Max.
type Backoff struct {
	Base, Max Duration
}

// Delay returns the wait before retry attempt n (0-based): Base<<n,
// capped at Max. With Max == 0 the schedule is uncapped by policy but
// still clamps at the last value that doubles without overflowing, so
// the result is never negative regardless of attempt count.
func (b Backoff) Delay(attempt int) Duration {
	if attempt < 0 {
		attempt = 0
	}
	if b.Base <= 0 {
		return 0
	}
	d := b.Base
	for i := 0; i < attempt; i++ {
		next := d * 2
		if next <= d {
			// Doubling a positive Duration only fails to grow on int64
			// overflow; keep the last representable value.
			break
		}
		d = next
		if b.Max > 0 && d >= b.Max {
			return b.Max
		}
	}
	if b.Max > 0 && d > b.Max {
		return b.Max
	}
	return d
}

// Ledger attributes simulated CPU time to named components. The Figure 2
// scalability study ("cores wasted") divides a ledger total by wall time;
// the Figure 7 breakdown prints per-component sums.
type Ledger struct {
	totals map[string]Duration
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{totals: make(map[string]Duration)} }

// Charge adds d of CPU time to component. Negative charges panic.
func (l *Ledger) Charge(component string, d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative CPU charge %v to %q", d, component))
	}
	l.totals[component] += d
}

// Total returns the accumulated time for component.
func (l *Ledger) Total(component string) Duration { return l.totals[component] }

// Sum returns the accumulated time across all components.
func (l *Ledger) Sum() Duration {
	var s Duration
	for _, v := range l.totals {
		s += v
	}
	return s
}

// Components returns the component names in sorted order.
func (l *Ledger) Components() []string {
	names := make([]string, 0, len(l.totals))
	for k := range l.totals {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Merge adds all of other's charges into l.
func (l *Ledger) Merge(other *Ledger) {
	for k, v := range other.totals {
		l.totals[k] += v
	}
}

// CoresUsed converts the ledger sum over a wall-clock window into an
// average core count, the unit of Figure 2.
func (l *Ledger) CoresUsed(wall Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(l.Sum()) / float64(wall)
}

// Reset clears all charges.
func (l *Ledger) Reset() {
	l.totals = make(map[string]Duration)
}
