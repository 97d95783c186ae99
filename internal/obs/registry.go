package obs

import (
	"fmt"
	"sort"
	"sync"
)

// kind classifies a registered metric for TYPE lines and encoding.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindCounterFunc
	kindHistogram
	kindCounterVec
	kindGaugeVec
	kindHistogramVec
	kindCounterVecFunc
	kindGaugeVecFunc
	kindHistogramFunc
	kindHistogramVecFunc
)

func (k kind) prom() string {
	switch k {
	case kindCounter, kindCounterVec, kindCounterFunc, kindCounterVecFunc:
		return "counter"
	case kindHistogram, kindHistogramVec, kindHistogramFunc, kindHistogramVecFunc:
		return "histogram"
	default:
		return "gauge"
	}
}

type entry struct {
	name   string
	help   string
	kind   kind
	labels []string
	metric interface{} // *Counter, *Gauge, *Histogram, *CounterVec, ..., or a sampling func
}

// Registry is a named collection of metrics with a Prometheus text
// encoder (prom.go). Registration is idempotent: asking for an existing
// name with the same kind returns the existing metric, so independent
// components (two engines, a pump and a server) can share one family.
// Re-registering a name with a different kind panics — that is a
// programming error, caught in tests.
//
// A Registry is safe for concurrent registration, observation, and
// encoding.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Observable is implemented by components that can attach their metrics
// to a registry (search.Delayed, search.Flaky, async.Pump, ...).
// Observe must be idempotent: attaching twice to the same registry binds
// the same underlying metric families.
type Observable interface {
	Observe(reg *Registry)
}

func (r *Registry) get(name string, k kind, build func() interface{}, labels ...string) interface{} {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if ok {
		if e.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, k.prom(), e.kind.prom()))
		}
		return e.metric
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok = r.entries[name]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, k.prom(), e.kind.prom()))
		}
		return e.metric
	}
	m := build()
	r.entries[name] = &entry{name: name, kind: k, metric: m, labels: labels}
	return m
}

// SetHelp attaches (or replaces) the HELP string of a registered metric.
// Registration helpers below set it on first creation; SetHelp exists
// for callers that obtained a family before its help text was known.
func (r *Registry) setHelp(name, help string) {
	r.mu.Lock()
	if e, ok := r.entries[name]; ok && e.help == "" {
		e.help = help
	}
	r.mu.Unlock()
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	c := r.get(name, kindCounter, func() interface{} { return &Counter{} }).(*Counter)
	r.setHelp(name, help)
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := r.get(name, kindGauge, func() interface{} { return &Gauge{} }).(*Gauge)
	r.setHelp(name, help)
	return g
}

// sampled registers a family whose samples fn computes at encode time.
// Re-registering replaces fn, keeping Observe idempotent for components
// that re-attach.
func (r *Registry) sampled(name, help string, k kind, fn interface{}, labels ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered as sampled %s (was %s)", name, k.prom(), e.kind.prom()))
		}
		e.metric = fn
		return
	}
	r.entries[name] = &entry{name: name, help: help, kind: k, labels: labels, metric: fn}
}

// GaugeFunc registers a live gauge sampled at encode time (e.g. the
// pump's instantaneous queue depth).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.sampled(name, help, kindGaugeFunc, fn)
}

// CounterFunc registers a counter sampled at encode time, for components
// that already maintain the monotonic count themselves.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.sampled(name, help, kindCounterFunc, fn)
}

// The *VecFunc and HistogramFunc forms are the same idea for families a
// component keeps in its own table (the pump's per-destination records):
// fn returns the current reading per value of the one label, and the
// encoder emits them in label order.

// CounterVecFunc registers a one-label counter family sampled at encode time.
func (r *Registry) CounterVecFunc(name, help, label string, fn func() map[string]float64) {
	r.sampled(name, help, kindCounterVecFunc, fn, label)
}

// GaugeVecFunc registers a one-label gauge family sampled at encode time.
func (r *Registry) GaugeVecFunc(name, help, label string, fn func() map[string]float64) {
	r.sampled(name, help, kindGaugeVecFunc, fn, label)
}

// HistogramFunc registers a histogram snapshotted at encode time.
func (r *Registry) HistogramFunc(name, help string, fn func() HistSnapshot) {
	r.sampled(name, help, kindHistogramFunc, fn)
}

// HistogramVecFunc registers a one-label histogram family snapshotted at
// encode time.
func (r *Registry) HistogramVecFunc(name, help, label string, fn func() map[string]HistSnapshot) {
	r.sampled(name, help, kindHistogramVecFunc, fn, label)
}

// Histogram returns the named histogram, creating it on first use with
// the given bucket bounds (nil = DefBuckets). Buckets are fixed at
// first registration.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := r.get(name, kindHistogram, func() interface{} { return NewHistogram(buckets) }).(*Histogram)
	r.setHelp(name, help)
	return h
}

// CounterVec returns the named counter family, creating it on first use.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := r.get(name, kindCounterVec, func() interface{} { return NewCounterVec(labels...) }, labels...).(*CounterVec)
	r.setHelp(name, help)
	return v
}

// GaugeVec returns the named gauge family, creating it on first use.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	v := r.get(name, kindGaugeVec, func() interface{} { return NewGaugeVec(labels...) }, labels...).(*GaugeVec)
	r.setHelp(name, help)
	return v
}

// HistogramVec returns the named histogram family, creating it on first
// use with the given buckets (nil = DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	v := r.get(name, kindHistogramVec, func() interface{} { return NewHistogramVec(buckets, labels...) }, labels...).(*HistogramVec)
	r.setHelp(name, help)
	return v
}

// snapshot returns the entries sorted by name for deterministic encoding.
func (r *Registry) snapshot() []*entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
