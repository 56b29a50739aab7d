// Package stats provides the measurement primitives the benchmark harness
// is built on: streaming histograms with percentile queries, time-series
// samplers, exponentially weighted moving averages and simple counters.
// Everything is allocation-light and safe to keep per simulated component.
package stats

import (
	"fmt"
	"math"
)

// Histogram is a log-bucketed streaming histogram. Values are grouped into
// buckets whose width grows geometrically, giving ~2% relative error on
// percentile queries across nine decades while using a few KiB. It is the
// store behind the Silo latency percentiles (Figure 12).
type Histogram struct {
	buckets []uint64
	count   uint64
	sum     float64
	min     float64
	max     float64
}

const (
	histBucketsPerDecade = 32
	histDecades          = 12 // 1ns .. ~1000s when values are nanoseconds
	histBucketCount      = histBucketsPerDecade * histDecades
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{
		buckets: make([]uint64, histBucketCount),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

func histBucket(v float64) int {
	if v < 1 {
		return 0
	}
	b := int(math.Log10(v) * histBucketsPerDecade)
	if b >= histBucketCount {
		b = histBucketCount - 1
	}
	return b
}

// histBucketValue returns a representative (geometric mid) value for bucket b.
func histBucketValue(b int) float64 {
	return math.Pow(10, (float64(b)+0.5)/histBucketsPerDecade)
}

// Observe records one value. Negative values are clamped to zero.
func (h *Histogram) Observe(v float64) {
	if v < 0 {
		v = 0
	}
	h.buckets[histBucket(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean of all observations, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the value at quantile q in [0, 1]. Exact min/max are
// returned at the extremes. Interior quantiles carry bucket-width error
// but are always clamped to [Min(), Max()]: the geometric bucket
// midpoint can overshoot the largest observation (or undercut the
// smallest) in the extreme occupied buckets, and reporting a latency
// that was never observed would poison downstream metrics.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint64
	for b, c := range h.buckets {
		seen += c
		if seen > rank {
			v := histBucketValue(b)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.Max()
}

// Merge adds all observations recorded in other into h.
func (h *Histogram) Merge(other *Histogram) {
	for b, c := range other.buckets {
		h.buckets[b] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.count > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Clone returns an independent copy of h. Snapshot consumers (the obs
// registry) clone so later observations never mutate a published
// snapshot.
func (h *Histogram) Clone() *Histogram {
	out := *h
	out.buckets = append([]uint64(nil), h.buckets...)
	return &out
}

// Reset discards all observations.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.count = 0
	h.sum = 0
	h.min = math.Inf(1)
	h.max = math.Inf(-1)
}

// EWMA is an exponentially weighted moving average used for smoothed
// throughput series (Figure 8's "locally estimated smoothing").
type EWMA struct {
	alpha  float64
	value  float64
	primed bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]; larger
// alpha tracks the input faster.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("stats: EWMA alpha must be in (0, 1]")
	}
	return &EWMA{alpha: alpha}
}

// Observe folds v into the average.
func (e *EWMA) Observe(v float64) {
	if !e.primed {
		e.value = v
		e.primed = true
		return
	}
	// The conversion rounds the product, so no GOARCH fuses it into a
	// multiply-add.
	e.value += float64(e.alpha * (v - e.value))
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Series collects (time, value) pairs, e.g. instantaneous throughput over
// simulated time.
type Series struct {
	Name   string
	Times  []float64
	Values []float64
}

// Append records one point. Times must be non-decreasing; Append panics on
// time regressions to surface simulator bugs early.
func (s *Series) Append(t, v float64) {
	if n := len(s.Times); n > 0 && t < s.Times[n-1] {
		panic(fmt.Sprintf("stats: series %q time went backwards: %v after %v", s.Name, t, s.Times[n-1]))
	}
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Times) }

// Smoothed returns a copy of the series with an EWMA applied.
func (s *Series) Smoothed(alpha float64) *Series {
	out := &Series{Name: s.Name + " (smoothed)"}
	e := NewEWMA(alpha)
	for i := range s.Times {
		e.Observe(s.Values[i])
		out.Append(s.Times[i], e.Value())
	}
	return out
}

// Mean returns the mean of the series values, or 0 when empty.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// GeoMean returns the geometric mean of xs. Zero or negative inputs are
// rejected with a panic: they indicate a broken experiment, and silently
// absorbing them would corrupt the headline "28% average" style numbers.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", x))
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
