package core

import "demeter/internal/pebs"

// SampleChannel carries PEBS samples from context-switch draining to the
// classifier, §3.2.2. The paper's channel is a lock-free multi-producer
// ring, so no vCPU ever blocks on the classifier. The simulator runs each
// VM on one goroutine, so here the channel is a bounded FIFO and the
// lock-free design is represented by its constant per-sample cost
// (hypervisor.SampleHandleCost to push, PTEOpCost to consume). When the
// channel is full samples are dropped and counted — hotness sampling is
// lossy by nature, and blocking a context switch would be far worse.
type SampleChannel struct {
	buf      []pebs.Sample // grows on demand, never past capacity
	capacity int
	dropped  uint64
	wedged   bool
}

// NewSampleChannel returns an empty channel that holds at most capacity
// samples.
func NewSampleChannel(capacity int) *SampleChannel {
	if capacity <= 0 {
		panic("core: sample channel capacity must be positive")
	}
	return &SampleChannel{capacity: capacity}
}

// Push appends one sample; it reports false (and counts a drop) when the
// channel is full.
func (c *SampleChannel) Push(s pebs.Sample) bool {
	if len(c.buf) >= c.capacity {
		c.dropped++
		return false
	}
	c.buf = append(c.buf, s)
	return true
}

// Wedge stops the consumer: Drain hands out nothing until Unwedge. This is
// the channel.wedge fault — the consumer side of the delegation path stops
// making progress, producers fill the channel and every further Push
// drops. Producers are unaffected, so the drop counter keeps climbing,
// which is exactly the signal the health monitor keys on.
func (c *SampleChannel) Wedge() { c.wedged = true }

// Unwedge releases a wedged consumer (recovery handback).
func (c *SampleChannel) Unwedge() { c.wedged = false }

// Drain hands every buffered sample to fn, oldest first, and returns the
// count. A wedged channel drains nothing. fn must not Push.
func (c *SampleChannel) Drain(fn func(pebs.Sample)) int {
	if c.wedged {
		return 0
	}
	for _, s := range c.buf {
		fn(s)
	}
	n := len(c.buf)
	c.buf = c.buf[:0]
	return n
}

// Dropped returns the number of samples rejected on a full channel.
func (c *SampleChannel) Dropped() uint64 { return c.dropped }

// Len returns the number of buffered samples.
func (c *SampleChannel) Len() int { return len(c.buf) }
