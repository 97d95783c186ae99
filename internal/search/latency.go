package search

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// LatencyModel describes the simulated per-request delay of a remote
// search engine. The paper measures AltaVista latencies of "one or more
// seconds" per request; the model here reproduces a base delay with
// seeded jitter so experiments are repeatable.
type LatencyModel struct {
	// Base is the minimum per-request delay.
	Base time.Duration
	// Jitter is the maximum additional random delay (uniform).
	Jitter time.Duration
	// CountFactor scales the delay of Count requests relative to Search
	// requests; "many Web search engines can return a total number of
	// pages immediately, without delivering the actual URLs" (Section 3),
	// so counts are somewhat cheaper. 1.0 means no difference.
	CountFactor float64
}

// PaperLatency approximates the 1999 web: ~0.75s per search.
func PaperLatency() LatencyModel {
	return LatencyModel{Base: 600 * time.Millisecond, Jitter: 300 * time.Millisecond, CountFactor: 0.8}
}

// ZeroLatency disables delays (for unit tests of query semantics).
func ZeroLatency() LatencyModel { return LatencyModel{} }

// The engine operations, indexing a Delayed record's per-op slots; ops
// holds their op label values.
const (
	opCount = iota
	opSearch
	opFetch
)

var ops = [...]string{opCount: "count", opSearch: "search", opFetch: "fetch"}

// Delayed wraps an engine, sleeping per request according to a latency
// model. It is safe for concurrent use; each in-flight request sleeps
// independently, which is exactly the property asynchronous iteration
// exploits.
//
// It keeps the engine's one request record — per op a request count and a
// wall-time histogram, plus the requests in flight and their high-water
// mark — which Stats reads and Observe exposes on /metrics.
type Delayed struct {
	inner Engine
	model LatencyModel
	rng   *Rand

	// statsMu guards the coupled inFlight/maxInFlight pair: the
	// high-water mark must be updated atomically with the gauge
	// (ResetStats relies on this to restart the mark from the live
	// concurrency).
	statsMu     sync.Mutex
	inFlight    int
	maxInFlight int
	// requests and latency are indexed like ops. latency is the full
	// request wall time: simulated delay, any fault stacked below, and
	// the inner engine's work.
	requests [len(ops)]obs.Counter
	latency  [len(ops)]*obs.Histogram
}

// NewDelayed wraps inner with the given latency model and jitter seed.
func NewDelayed(inner Engine, model LatencyModel, seed int64) *Delayed {
	return NewDelayedRand(inner, model, NewRand(seed))
}

// NewDelayedRand is NewDelayed drawing jitter from a caller-supplied locked
// Rand, so a Flaky fault injector stacked on the same engine can share one
// seeded stream (one seed fixes the whole simulated engine).
func NewDelayedRand(inner Engine, model LatencyModel, rng *Rand) *Delayed {
	if rng == nil {
		rng = NewRand(1)
	}
	d := &Delayed{inner: inner, model: model, rng: rng}
	for i := range d.latency {
		d.latency[i] = obs.NewHistogram(nil)
	}
	return d
}

// Name implements Engine.
func (d *Delayed) Name() string { return d.inner.Name() }

// Observe implements obs.Observable: it exposes the request record on reg
// as the engine's series of the wsq_engine_* families, and forwards to the
// wrapped engine if it is observable too (a Flaky injector stacked below
// adds its fault counts). An op's series appear with its first request.
func (d *Delayed) Observe(reg *obs.Registry) {
	name := d.Name()
	perOp := []string{"engine", "op"}
	reg.CounterVecFunc("wsq_engine_requests_total",
		"Search-engine requests, by engine and operation.", perOp, name, func() []obs.Series[float64] {
			var out []obs.Series[float64]
			for i, op := range ops {
				if n := d.requests[i].Value(); n > 0 {
					out = append(out, obs.Series[float64]{Labels: []string{name, op}, Value: float64(n)})
				}
			}
			return out
		})
	reg.HistogramVecFunc("wsq_engine_request_seconds",
		"Search-engine request wall time (delay, faults, and engine work), by engine and operation.",
		perOp, name, func() []obs.Series[obs.HistSnapshot] {
			var out []obs.Series[obs.HistSnapshot]
			for i, op := range ops {
				if h := d.latency[i].Snapshot(); h.Count > 0 {
					out = append(out, obs.Series[obs.HistSnapshot]{Labels: []string{name, op}, Value: h})
				}
			}
			return out
		})
	reg.GaugeVecFunc("wsq_engine_inflight",
		"Requests currently in flight, by engine.", []string{"engine"}, name, func() []obs.Series[float64] {
			d.statsMu.Lock()
			defer d.statsMu.Unlock()
			if d.maxInFlight == 0 {
				return nil // no request since the last reset
			}
			return []obs.Series[float64]{{Labels: []string{name}, Value: float64(d.inFlight)}}
		})
	if o, ok := d.inner.(obs.Observable); ok {
		o.Observe(reg)
	}
}

func (d *Delayed) delay(factor float64) {
	if d.model.Base == 0 && d.model.Jitter == 0 {
		return
	}
	j := d.rng.Duration(d.model.Jitter)
	total := time.Duration(float64(d.model.Base+j) * factor)
	time.Sleep(total)
}

// enter records the start of a request of one op and returns the paired
// exit function, which records its wall time. Call as
// `defer d.enter(op)()`.
func (d *Delayed) enter(op int) func() {
	d.statsMu.Lock()
	d.inFlight++
	if d.inFlight > d.maxInFlight {
		d.maxInFlight = d.inFlight
	}
	d.statsMu.Unlock()
	d.requests[op].Inc()
	start := time.Now()
	return func() {
		d.latency[op].ObserveDuration(time.Since(start))
		d.statsMu.Lock()
		d.inFlight--
		d.statsMu.Unlock()
	}
}

// Count implements Engine with an injected delay.
func (d *Delayed) Count(query string) (int64, error) {
	defer d.enter(opCount)()
	f := d.model.CountFactor
	if f == 0 {
		f = 1
	}
	d.delay(f)
	return d.inner.Count(query)
}

// Search implements Engine with an injected delay.
func (d *Delayed) Search(query string, k int) ([]Result, error) {
	defer d.enter(opSearch)()
	d.delay(1)
	return d.inner.Search(query, k)
}

// Fetch implements Engine with an injected delay.
func (d *Delayed) Fetch(url string) (string, error) {
	defer d.enter(opFetch)()
	d.delay(1)
	return d.inner.Fetch(url)
}

// Stats reports total requests served and the maximum observed request
// concurrency — the direct evidence that asynchronous iteration overlapped
// calls.
func (d *Delayed) Stats() (requests int64, maxInFlight int) {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	for i := range d.requests {
		requests += d.requests[i].Value()
	}
	return requests, d.maxInFlight
}

// ResetStats clears the record between experiment runs, its /metrics
// series included. It takes the same mutex as the request path
// (enter/exit), so it is safe while requests are in flight: the inFlight
// gauge is preserved — zeroing it mid-request would let the paired exit()
// drive it negative and corrupt maxInFlight for every later run — and the
// high-water mark restarts from the current concurrency.
func (d *Delayed) ResetStats() {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	d.maxInFlight = d.inFlight
	for i := range d.requests {
		d.requests[i].Reset()
		d.latency[i].Reset()
	}
}
