// Package obs is the observability backbone of the WSQ/DSQ reproduction:
// the record types components keep (atomic counters and fixed-bucket
// latency histograms), a registry that reads those records at scrape time
// and encodes them in the Prometheus text format, and a lightweight
// per-query trace recorder (trace.go).
//
// The paper's central claim — asynchronous iteration hides web-call
// latency behind dependent joins — is only verifiable at runtime with
// instrumentation: where did a query's wall-clock go? Pump queueing,
// engine latency, ReqSync buffering, or relational operators? Each layer
// of the stack (async.Pump, the search engine wrappers, the wsqd server)
// keeps one record of its own, which its Stats and /metrics both read;
// EXPLAIN ANALYZE renders per-operator profiles in the tradition of
// Volcano-style instrumented iterators.
//
// Counters and histograms are safe for concurrent use and never block:
// hot paths (one histogram observation per external call) cost a few
// atomic operations.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for Prometheus semantics; Add does not
// enforce this — experiment harnesses reset counters between runs).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset zeroes the counter. Prometheus counters are nominally monotonic;
// Reset exists for the experiment harness, which isolates timed runs.
func (c *Counter) Reset() { c.v.Store(0) }

// DefBuckets is the default latency histogram layout, in seconds. It
// spans 100µs (in-process simulated engines under test latency) to 60s
// (paper-scale latency with queueing), roughly ×2.5 per step.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket histogram with atomic counters. Bucket
// bounds are inclusive upper bounds in Prometheus "le" semantics; an
// implicit +Inf bucket catches everything beyond the last bound.
//
// Snapshots are not taken atomically with respect to concurrent
// observations: a reader may see a count that includes an observation
// whose bucket increment it missed (or vice versa). For monitoring and
// percentile estimation this skew is harmless.
type Histogram struct {
	bounds []float64 // sorted inclusive upper bounds, excluding +Inf
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomicFloat
}

// NewHistogram builds a histogram for its owner's record. A nil or empty
// buckets slice selects DefBuckets.
// Bounds must be sorted ascending; duplicates are dropped.
func NewHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := make([]float64, 0, len(buckets))
	for i, b := range buckets {
		if i > 0 && b <= bounds[len(bounds)-1] {
			continue
		}
		bounds = append(bounds, b)
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose bound is >= v ("le" semantics); sort.Search
	// finds the first bound not < v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// HistSnapshot is a point-in-time copy of a histogram's state.
type HistSnapshot struct {
	// Bounds are the finite bucket upper bounds; Counts has one extra
	// trailing entry for the +Inf bucket. Counts are per-bucket (not
	// cumulative).
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Reset zeroes the histogram (experiment harness use).
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.store(0)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile estimates the q-th quantile (0 <= q <= 1) by linear
// interpolation within the containing bucket, the standard
// histogram_quantile estimate. It returns NaN for an empty histogram;
// quantiles that land in the +Inf bucket clamp to the last finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	return h.Snapshot().Quantile(q)
}

// Quantile estimates a quantile from a snapshot (see Histogram.Quantile).
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: clamp to the largest finite bound.
			if len(s.Bounds) == 0 {
				return math.NaN()
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// atomicFloat accumulates a float64 with CAS on its bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
