package main

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/search"
)

// errReplayMiss is returned for a request that was not recorded in
// set-up. It fails the query that made it, and so counts as a failed
// operation: a timed phase must never send the program to an answer the
// fixture does not hold.
var errReplayMiss = errors.New("replay miss")

// callSpan is one engine call as the fixture saw it, in time since the
// process epoch.
type callSpan struct {
	dest       string
	start, end time.Duration
}

// callLog collects call spans during a traced run; the tracer drains it
// after each query.
type callLog struct {
	mu    sync.Mutex
	calls []callSpan
}

func (l *callLog) add(c callSpan) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

func (l *callLog) drain() []callSpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.calls
	l.calls = nil
	return out
}

// replayEngine is the benchmark's search.Engine. While recording it
// forwards to a websim engine and stores every answer; once sealed it
// serves only stored answers, after sleeping a fixed latency itself. That
// keeps the simulated web's index CPU (about 0.3 ms a call) out of every
// timed number and makes the latency floor exact: no jitter, and Count
// costs the same as Search.
type replayEngine struct {
	name  string
	inner search.Engine // nil once sealed

	mu       sync.Mutex // guards the maps while recording; sealed maps are read-only
	counts   map[string]int64
	searches map[string][]search.Result
	sealed   atomic.Bool

	latency atomic.Int64 // time.Duration slept per replayed call
	sleeper *sleeper     // shared by the engines of one fixture

	calls    atomic.Int64
	inflight atomic.Int64
	peak     peakGauge

	log *callLog // nil unless tracing
	// goroutines, when set, receives the goroutine count seen at each
	// call start: the moment a query has the most in flight.
	goroutines *peakGauge
}

// peakGauge keeps the largest value offered to it.
type peakGauge struct{ v atomic.Int64 }

func (g *peakGauge) offer(n int64) {
	for {
		p := g.v.Load()
		if n <= p || g.v.CompareAndSwap(p, n) {
			return
		}
	}
}

var _ search.Engine = (*replayEngine)(nil)

func newReplayEngine(inner search.Engine, sl *sleeper) *replayEngine {
	return &replayEngine{
		name:     inner.Name(),
		inner:    inner,
		sleeper:  sl,
		counts:   make(map[string]int64),
		searches: make(map[string][]search.Result),
	}
}

// seal ends recording: from here on every answer comes from the maps.
func (e *replayEngine) seal() {
	e.mu.Lock()
	e.inner = nil
	e.mu.Unlock()
	e.sealed.Store(true)
}

func (e *replayEngine) setLatency(d time.Duration) { e.latency.Store(int64(d)) }

// resetCounters restarts the call and peak-concurrency counters.
func (e *replayEngine) resetCounters() {
	e.calls.Store(0)
	e.peak.v.Store(e.inflight.Load())
}

func (e *replayEngine) Name() string { return e.name }

func searchKey(query string, k int) string { return strconv.Itoa(k) + "\x00" + query }

// enter starts one replayed call and returns the function that ends it.
func (e *replayEngine) enter() func() {
	e.calls.Add(1)
	e.peak.offer(e.inflight.Add(1))
	if e.goroutines != nil {
		e.goroutines.offer(int64(runtime.NumGoroutine()))
	}
	var start time.Duration
	if e.log != nil {
		start = sinceEpoch()
	}
	if d := time.Duration(e.latency.Load()); d > 0 {
		e.sleeper.sleep(d)
	}
	return func() {
		if e.log != nil {
			e.log.add(callSpan{dest: e.name, start: start, end: sinceEpoch()})
		}
		e.inflight.Add(-1)
	}
}

func (e *replayEngine) miss(what string) error {
	return fmt.Errorf("%s %s: %w", e.name, what, errReplayMiss)
}

func (e *replayEngine) Count(query string) (int64, error) {
	if !e.sealed.Load() {
		e.mu.Lock()
		defer e.mu.Unlock()
		n, err := e.inner.Count(query)
		if err == nil {
			e.counts[query] = n
		}
		return n, err
	}
	defer e.enter()()
	n, ok := e.counts[query]
	if !ok {
		return 0, e.miss("count " + query)
	}
	return n, nil
}

func (e *replayEngine) Search(query string, k int) ([]search.Result, error) {
	key := searchKey(query, k)
	if !e.sealed.Load() {
		e.mu.Lock()
		defer e.mu.Unlock()
		rs, err := e.inner.Search(query, k)
		if err == nil {
			e.searches[key] = append([]search.Result(nil), rs...)
		}
		return rs, err
	}
	defer e.enter()()
	rs, ok := e.searches[key]
	if !ok {
		return nil, e.miss("search " + query)
	}
	return append([]search.Result(nil), rs...), nil
}

// Fetch is never recorded: no workload fetches pages.
func (e *replayEngine) Fetch(url string) (string, error) {
	if !e.sealed.Load() {
		return e.inner.Fetch(url)
	}
	defer e.enter()()
	return "", e.miss("fetch " + url)
}

// engineSet is the pair of replay engines every web workload registers.
type engineSet []*replayEngine

func (s engineSet) seal() {
	for _, e := range s {
		e.seal()
	}
}

func (s engineSet) setLatency(d time.Duration) {
	for _, e := range s {
		e.setLatency(d)
	}
}

func (s engineSet) resetCounters() {
	for _, e := range s {
		e.resetCounters()
	}
}

func (s engineSet) calls() (n int64) {
	for _, e := range s {
		n += e.calls.Load()
	}
	return n
}

// peak is the highest per-destination concurrency any engine saw.
func (s engineSet) peak() (n int64) {
	for _, e := range s {
		if p := e.peak.v.Load(); p > n {
			n = p
		}
	}
	return n
}

func (s engineSet) trace(log *callLog) {
	for _, e := range s {
		e.log = log
	}
}

func (s engineSet) sampleGoroutines(g *peakGauge) {
	for _, e := range s {
		e.goroutines = g
	}
}

var epoch = time.Now()

func sinceEpoch() time.Duration { return time.Since(epoch) }
