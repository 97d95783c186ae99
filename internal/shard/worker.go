package shard

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/async"
	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/types"
)

// WorkerOptions configures the shard-protocol wrapper around one wsqd.
type WorkerOptions struct {
	// ID is this worker's ring identity (must match the tier config).
	ID string
	// Inner is the single-node wsqd handler (internal/server); every
	// request outside /shard/* is delegated to it.
	Inner http.Handler
	// Cache is the worker's [HN96] result cache, served to peers over
	// /shard/cache/*. Nil disables peering (gets answer 404).
	Cache *cache.Cache
	// Pump receives per-destination limits pushed by the coordinator.
	Pump *async.Pump
	// Peers is the worker's own peer client; drain uses it to hand hot
	// keys to their new homes, and /shard/membership updates its ring.
	Peers *Peers
	// MaxPromiseWaitMS caps how long a remote get may linger for an
	// in-progress fill regardless of the asker's wait_ms (default 1000).
	MaxPromiseWaitMS int
	// PromiseTTL bounds how long an unresolved fill promise blocks 404
	// re-claims (default 5s): if the claiming misser dies before filling,
	// the next misser takes over after the TTL.
	PromiseTTL time.Duration
	// HandoffMax is the number of hottest cache entries pushed to their
	// new homes during drain (default 64; 0 selects the default, -1
	// disables handoff).
	HandoffMax int
	// DrainPoll is the in-flight poll interval during drain (default
	// 10ms; tests shorten it).
	DrainPoll time.Duration
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.MaxPromiseWaitMS <= 0 {
		o.MaxPromiseWaitMS = 1000
	}
	if o.PromiseTTL <= 0 {
		o.PromiseTTL = 5 * time.Second
	}
	if o.HandoffMax == 0 {
		o.HandoffMax = 64
	}
	if o.DrainPoll <= 0 {
		o.DrainPoll = 10 * time.Millisecond
	}
	return o
}

// fillPromise tracks one expected fill: the first remote misser of a key
// claims the promise (and goes off to compute), later missers wait on it
// instead of issuing duplicate engine calls on their own nodes.
type fillPromise struct {
	done chan struct{}
	rows []types.Tuple
	ok   bool
	born time.Time
}

// Worker serves the shard side of the tier protocol in front of a wsqd:
//
//	GET  /shard/cache/get?key=K&wait_ms=N   home-shard cache lookup
//	POST /shard/cache/fill                  {key, rows} store + resolve waiters
//	POST /shard/limits                      {limits: {dest: n}} per-dest budget
//	POST /shard/membership                  {workers, vnodes} new ring view
//	POST /shard/drain                       finish in-flight, hand off hot keys
//
// plus draining-aware delegation of /query to the inner handler (a
// draining worker answers 503 with Retry-After so the coordinator
// reroutes).
type Worker struct {
	opt WorkerOptions
	mux *http.ServeMux

	draining atomic.Bool
	inflight atomic.Int64

	pmu      sync.Mutex
	promises map[string]*fillPromise

	// counters
	remoteHits    atomic.Int64
	remoteMisses  atomic.Int64
	promiseWaits  atomic.Int64
	promiseServed atomic.Int64
	fillsRecv     atomic.Int64
	drainRejects  atomic.Int64
	handedOff     atomic.Int64
}

// NewWorker wraps an inner wsqd handler with the shard protocol.
func NewWorker(opt WorkerOptions) *Worker {
	w := &Worker{
		opt:      opt.withDefaults(),
		promises: make(map[string]*fillPromise),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/shard/cache/get", w.handleCacheGet)
	mux.HandleFunc("/shard/cache/fill", w.handleCacheFill)
	mux.HandleFunc("/shard/limits", w.handleLimits)
	mux.HandleFunc("/shard/membership", w.handleMembership)
	mux.HandleFunc("/shard/drain", w.handleDrain)
	mux.HandleFunc("/query", w.handleQuery)
	mux.HandleFunc("/", w.delegate)
	w.mux = mux
	return w
}

// ServeHTTP implements http.Handler.
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	w.mux.ServeHTTP(rw, r)
}

// Draining reports whether the worker has entered drain.
func (w *Worker) Draining() bool { return w.draining.Load() }

// InFlight reports queries currently executing in the inner handler.
func (w *Worker) InFlight() int64 { return w.inflight.Load() }

func (w *Worker) delegate(rw http.ResponseWriter, r *http.Request) {
	if w.opt.Inner == nil {
		http.NotFound(rw, r)
		return
	}
	w.opt.Inner.ServeHTTP(rw, r)
}

// handleQuery delegates to the inner handler unless draining, counting
// in-flight work so drain knows when the worker is quiet.
func (w *Worker) handleQuery(rw http.ResponseWriter, r *http.Request) {
	if w.draining.Load() {
		w.drainRejects.Add(1)
		rw.Header().Set("Retry-After", "1")
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(rw).Encode(map[string]string{"error": "worker draining; retry elsewhere"})
		return
	}
	w.inflight.Add(1)
	defer w.inflight.Add(-1)
	w.delegate(rw, r)
}

// SpanHeader carries a remote handler's span (an encoded obs.Span, one
// JSON line) back to the caller on header-only exchanges — the cache-get
// protocol, whose 404 answers have no body to ride in. The asker anchors
// it at the start of its round trip and adds it under its own span,
// stitching the remote work into the query's trace.
const SpanHeader = "X-Wsq-Span"

// traceSpanSetter returns a function that stamps SpanHeader with a
// shard.cache.get span just before the response is written, or nil when
// the request carries no sampled traceparent (the untraced hot path does
// no timing at all).
func (w *Worker) traceSpanSetter(rw http.ResponseWriter, r *http.Request) func(outcome string) {
	if obs.UpstreamTrace(r.Header) == nil {
		return nil
	}
	start := time.Now()
	return func(outcome string) {
		span := &obs.Span{Op: "shard.cache.get", Detail: outcome, Node: w.opt.ID, Start: start, Dur: time.Since(start)}
		if buf, err := json.Marshal(span); err == nil {
			rw.Header().Set(SpanHeader, string(buf))
		}
	}
}

// handleCacheGet is the home-shard lookup. On a hit it returns the rows.
// On a miss it consults the fill-promise map: the first misser claims
// the key (404 — go compute and fill me), later missers wait up to
// wait_ms for that fill and are served from it when it lands.
func (w *Worker) handleCacheGet(rw http.ResponseWriter, r *http.Request) {
	traced := w.traceSpanSetter(rw, r)
	key := r.URL.Query().Get("key")
	if key == "" || w.opt.Cache == nil {
		http.NotFound(rw, r)
		return
	}
	if rows, ok := w.opt.Cache.Get(key); ok {
		w.remoteHits.Add(1)
		if traced != nil {
			traced("hit")
		}
		writeRows(rw, rows)
		return
	}

	waitMS, _ := strconv.Atoi(r.URL.Query().Get("wait_ms"))
	if waitMS > w.opt.MaxPromiseWaitMS {
		waitMS = w.opt.MaxPromiseWaitMS
	}

	w.pmu.Lock()
	pr := w.promises[key]
	if pr != nil && time.Since(pr.born) > w.opt.PromiseTTL {
		// The claimant likely died before filling; let this misser take over.
		delete(w.promises, key)
		pr = nil
	}
	if pr == nil {
		w.promises[key] = &fillPromise{done: make(chan struct{}), born: time.Now()}
		w.pmu.Unlock()
		w.remoteMisses.Add(1)
		if traced != nil {
			traced("miss_claimed")
		}
		http.NotFound(rw, r) // claimed: the asker computes, then fills
		return
	}
	w.pmu.Unlock()

	// A fill for this key is already promised — linger for it.
	w.promiseWaits.Add(1)
	if waitMS > 0 {
		t := time.NewTimer(time.Duration(waitMS) * time.Millisecond)
		defer t.Stop()
		select {
		case <-pr.done:
			if pr.ok {
				w.promiseServed.Add(1)
				if traced != nil {
					traced("promise_hit")
				}
				writeRows(rw, pr.rows)
				return
			}
		case <-t.C:
		case <-r.Context().Done():
		}
	}
	w.remoteMisses.Add(1)
	if traced != nil {
		traced("miss")
	}
	http.NotFound(rw, r)
}

func writeRows(rw http.ResponseWriter, rows []types.Tuple) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(cacheGetResponse{Rows: rows})
}

// handleCacheFill stores offered rows and resolves any waiting promise.
func (w *Worker) handleCacheFill(rw http.ResponseWriter, r *http.Request) {
	var req cacheFillRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Key == "" {
		http.Error(rw, "bad fill", http.StatusBadRequest)
		return
	}
	if w.opt.Cache != nil {
		w.opt.Cache.Put(req.Key, req.Rows)
	}
	w.fillsRecv.Add(1)
	w.pmu.Lock()
	pr := w.promises[req.Key]
	delete(w.promises, req.Key)
	w.pmu.Unlock()
	if pr != nil {
		pr.rows, pr.ok = req.Rows, true
		close(pr.done)
	}
	rw.WriteHeader(http.StatusNoContent)
}

// handleLimits applies coordinator-pushed per-destination call budgets.
func (w *Worker) handleLimits(rw http.ResponseWriter, r *http.Request) {
	var req limitsRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(rw, "bad limits", http.StatusBadRequest)
		return
	}
	if w.opt.Pump != nil {
		for dest, n := range req.Limits {
			w.opt.Pump.SetDestLimit(dest, n)
		}
	}
	rw.WriteHeader(http.StatusNoContent)
}

// handleMembership swaps the peer client's ring view.
func (w *Worker) handleMembership(rw http.ResponseWriter, r *http.Request) {
	var req membershipRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(rw, "bad membership", http.StatusBadRequest)
		return
	}
	if w.opt.Peers != nil {
		w.opt.Peers.Update(req.Workers)
	}
	rw.WriteHeader(http.StatusNoContent)
}

// handleDrain runs the graceful-exit sequence: stop admitting queries,
// wait for in-flight ones to finish, then push the hottest cache entries
// to their new homes on the (already updated, self-excluding) ring. The
// coordinator keeps rerouting fresh queries meanwhile, so the tier sees
// zero failures.
func (w *Worker) handleDrain(rw http.ResponseWriter, r *http.Request) {
	w.draining.Store(true)
	for w.inflight.Load() > 0 {
		select {
		case <-r.Context().Done():
			http.Error(rw, "drain interrupted", http.StatusRequestTimeout)
			return
		default:
		}
		time.Sleep(w.opt.DrainPoll)
	}

	handed := 0
	if w.opt.Cache != nil && w.opt.Peers != nil && w.opt.HandoffMax > 0 {
		ring := w.opt.Peers.Ring()
		for _, e := range w.opt.Cache.Entries(w.opt.HandoffMax) {
			owner, ok := ring.Owner(e.Key)
			if !ok || owner.ID == w.opt.ID {
				continue
			}
			if err := w.opt.Peers.FillTo(r.Context(), owner, e.Key, e.Rows); err == nil {
				handed++
			}
		}
	}
	w.handedOff.Add(int64(handed))

	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(drainResponse{HandedOff: handed})
}

// WorkerStats is a point-in-time snapshot of the shard-protocol counters.
type WorkerStats struct {
	RemoteHits    int64 `json:"remote_hits"`
	RemoteMisses  int64 `json:"remote_misses"`
	PromiseWaits  int64 `json:"promise_waits"`
	PromiseServed int64 `json:"promise_served"`
	FillsRecv     int64 `json:"fills_recv"`
	DrainRejects  int64 `json:"drain_rejects"`
	HandedOff     int64 `json:"handed_off"`
	Draining      bool  `json:"draining"`
}

// Stats snapshots the shard-protocol counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		RemoteHits:    w.remoteHits.Load(),
		RemoteMisses:  w.remoteMisses.Load(),
		PromiseWaits:  w.promiseWaits.Load(),
		PromiseServed: w.promiseServed.Load(),
		FillsRecv:     w.fillsRecv.Load(),
		DrainRejects:  w.drainRejects.Load(),
		HandedOff:     w.handedOff.Load(),
		Draining:      w.draining.Load(),
	}
}

// Observe registers the worker's shard-protocol counters.
func (w *Worker) Observe(reg *obs.Registry) {
	reg.CounterFunc("wsq_shard_remote_get_hits_total",
		"Peer cache gets served from this worker's cache (cross-node hits).",
		func() float64 { return float64(w.remoteHits.Load()) })
	reg.CounterFunc("wsq_shard_remote_get_misses_total",
		"Peer cache gets that missed here (including promise-claim 404s).",
		func() float64 { return float64(w.remoteMisses.Load()) })
	reg.CounterFunc("wsq_shard_promise_waits_total",
		"Peer cache gets that lingered for an in-progress fill.",
		func() float64 { return float64(w.promiseWaits.Load()) })
	reg.CounterFunc("wsq_shard_promise_served_total",
		"Lingering peer gets answered by the awaited fill.",
		func() float64 { return float64(w.promiseServed.Load()) })
	reg.CounterFunc("wsq_shard_fills_received_total",
		"Cache offers stored on behalf of peer workers.",
		func() float64 { return float64(w.fillsRecv.Load()) })
	reg.CounterFunc("wsq_shard_drain_rejects_total",
		"Queries answered 503 because this worker is draining.",
		func() float64 { return float64(w.drainRejects.Load()) })
	reg.CounterFunc("wsq_shard_handoff_keys_total",
		"Hot cache keys pushed to their new homes during drain.",
		func() float64 { return float64(w.handedOff.Load()) })
	reg.GaugeFunc("wsq_shard_worker_draining",
		"1 while the worker is draining, else 0.",
		func() float64 {
			if w.draining.Load() {
				return 1
			}
			return 0
		})
}
