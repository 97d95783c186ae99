package obs

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// kind is a family's Prometheus TYPE.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string { return [...]string{"counter", "gauge", "histogram"}[k] }

// Series is one series of a labeled family: its label values, in the
// order the family names its labels, and its reading.
type Series[T any] struct {
	Labels []string
	Value  T
}

// entry is one family: name, HELP, TYPE, label names, and the samplers of
// the owners that contribute its series.
type entry struct {
	name, help string
	kind       kind
	labels     []string
	sources    []source // replaced, never written in place: an encoder reads them unlocked
}

// source is one owner's contribution to a family, read at scrape time.
type source struct {
	owner  string
	values func() []Series[float64]      // counter and gauge families
	hists  func() []Series[HistSnapshot] // histogram families
}

// Registry is a named collection of metric families with a Prometheus
// text encoder (prom.go). Every family is a sampled view of a record its
// owner already keeps — the pump's destination table, an engine's request
// counts, the server's query counters — read when /metrics is scraped, so
// nothing is counted twice and Stats and /metrics cannot disagree.
//
// Several owners may contribute series to one family (every engine to
// wsq_engine_requests_total). Registering again under the same owner
// replaces that owner's sampler, so Observe is idempotent. Registering a
// name with a different kind or label set panics — a programming error,
// caught in tests.
//
// A Registry is safe for concurrent registration and encoding.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Observable is implemented by components that expose their records on a
// registry (search.Delayed, search.Flaky, async.Pump, ...). Observe must
// be idempotent: attaching twice to the same registry replaces the
// component's samplers.
type Observable interface {
	Observe(reg *Registry)
}

func (r *Registry) register(name, help string, k kind, labels []string, s source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.entries[name]
	if e == nil {
		e = &entry{name: name, help: help, kind: k, labels: labels}
		r.entries[name] = e
	} else if e.kind != k || !slices.Equal(e.labels, labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s%q (was %s%q)", name, k, labels, e.kind, e.labels))
	}
	sources := slices.Clone(e.sources)
	if i := slices.IndexFunc(sources, func(p source) bool { return p.owner == s.owner }); i >= 0 {
		sources[i] = s
	} else {
		sources = append(sources, s)
	}
	e.sources = sources
}

// single adapts an unlabeled reading to the one series of its family.
func single[T any](fn func() T) func() []Series[T] {
	return func() []Series[T] { return []Series[T]{{Value: fn()}} }
}

// CounterFunc registers a counter its owner keeps, read at scrape time.
// An unlabeled family has one owner: registering it again replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, kindCounter, nil, source{values: single(fn)})
}

// GaugeFunc registers an instantaneous value read at scrape time (e.g.
// the pump's queue depth).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, kindGauge, nil, source{values: single(fn)})
}

// HistogramFunc registers a histogram snapshotted at scrape time.
func (r *Registry) HistogramFunc(name, help string, fn func() HistSnapshot) {
	r.register(name, help, kindHistogram, nil, source{hists: single(fn)})
}

// The *VecFunc forms register owner's series of a labeled family: fn
// returns them, each with one value per name in labels. A series first
// appears when fn first returns it, so an owner returns a series only once
// its record has seen an event. The encoder merges every owner's series in
// label order; should two owners return the same label values, the series
// of the owner that registered first is the one written.

// CounterVecFunc registers owner's series of a labeled counter family.
func (r *Registry) CounterVecFunc(name, help string, labels []string, owner string, fn func() []Series[float64]) {
	r.register(name, help, kindCounter, labels, source{owner: owner, values: fn})
}

// GaugeVecFunc registers owner's series of a labeled gauge family.
func (r *Registry) GaugeVecFunc(name, help string, labels []string, owner string, fn func() []Series[float64]) {
	r.register(name, help, kindGauge, labels, source{owner: owner, values: fn})
}

// HistogramVecFunc registers owner's series of a labeled histogram family.
func (r *Registry) HistogramVecFunc(name, help string, labels []string, owner string, fn func() []Series[HistSnapshot]) {
	r.register(name, help, kindHistogram, labels, source{owner: owner, hists: fn})
}

// snapshot copies the entries, sorted by name for deterministic encoding.
func (r *Registry) snapshot() []entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// merge reads every source's series and returns them in label order, one
// per label set.
func merge[T any](sources []source, read func(source) []Series[T]) []Series[T] {
	var all []Series[T]
	for _, s := range sources {
		all = append(all, read(s)...)
	}
	slices.SortStableFunc(all, func(a, b Series[T]) int { return slices.Compare(a.Labels, b.Labels) })
	return slices.CompactFunc(all, func(a, b Series[T]) bool { return slices.Equal(a.Labels, b.Labels) })
}
