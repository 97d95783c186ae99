package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/async"
	"repro/internal/cache"
	"repro/internal/exec"
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
	// Pump receives per-destination limits pushed by the coordinator and
	// answers peers' asks for the keys this worker homes.
	Pump *async.Pump
	// Peers is the worker's own peer client: its ring decides which keys
	// this worker is home to, drain uses it to hand hot keys to their new
	// homes, and /shard/membership updates it.
	Peers *Peers
}

// handoffMax is the number of hottest cache entries drain pushes to their
// new homes.
const handoffMax = 64

// Worker serves the shard side of the tier protocol in front of a wsqd:
//
//	GET  /shard/cache/get?key=K&src=S   a peer's ask for a key this worker homes
//	POST /shard/cache/fill              {key, rows} store (drain's handoff)
//	POST /shard/limits                  {limits: {dest: n}} per-dest budget
//	POST /shard/membership              {workers, vnodes} new ring view
//	POST /shard/drain                   finish in-flight, hand off hot keys
//
// plus draining-aware delegation of /query to the inner handler (a
// draining worker answers 503 with Retry-After so the coordinator
// reroutes).
type Worker struct {
	opt WorkerOptions
	mux *http.ServeMux

	draining atomic.Bool
	inflight atomic.Int64
	// idle holds a wake-up for drain, sent when inflight reaches zero on a
	// draining worker; one buffered token is enough, drain re-checks
	// inflight after each.
	idle chan struct{}

	// counters
	remoteHits   atomic.Int64
	remoteMisses atomic.Int64
	fillsRecv    atomic.Int64
	drainRejects atomic.Int64
	handedOff    atomic.Int64
}

// NewWorker wraps an inner wsqd handler with the shard protocol.
func NewWorker(opt WorkerOptions) *Worker {
	w := &Worker{opt: opt, idle: make(chan struct{}, 1)}
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

func (w *Worker) delegate(rw http.ResponseWriter, r *http.Request) {
	if w.opt.Inner == nil {
		http.NotFound(rw, r)
		return
	}
	w.opt.Inner.ServeHTTP(rw, r)
}

// handleQuery delegates to the inner handler unless draining, counting
// in-flight work so drain knows when the worker is quiet. It counts the
// query before it reads draining, so any query drain's wait misses sees
// draining and is turned away.
func (w *Worker) handleQuery(rw http.ResponseWriter, r *http.Request) {
	w.inflight.Add(1)
	defer w.leave()
	if w.draining.Load() {
		w.drainRejects.Add(1)
		rw.Header().Set("Retry-After", "1")
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(rw).Encode(map[string]string{"error": "worker draining; retry elsewhere"})
		return
	}
	w.delegate(rw, r)
}

// leave uncounts a query; the last one out of a draining worker wakes
// drain.
func (w *Worker) leave() {
	if w.inflight.Add(-1) == 0 && w.draining.Load() {
		w.wakeDrain()
	}
}

func (w *Worker) wakeDrain() {
	select {
	case w.idle <- struct{}{}:
	default: // a wake-up is already waiting
	}
}

// SpanHeader carries a remote handler's span (an encoded obs.Span, one
// JSON line) back to the caller on header-only exchanges — the cache-get
// protocol, whose 404 answers have no body to ride in. The asker anchors
// it at the start of its round trip and adds it under its own span,
// stitching the remote work into the query's trace.
const SpanHeader = "X-Wsq-Span"

// handleCacheGet answers a peer's ask for key, a call of the source
// named src: from the cache, or else through this worker's pump
// (CallWithRetry), which coalesces it with any call of the key in flight
// here or runs it once under this worker's own token. A worker answers
// 404 for a key its ring homes elsewhere, and 502 when the call fails; an
// unknown source, or a key that is not of the source's engine, is a 400.
// An asker that gets anything but 200 runs the call itself.
func (w *Worker) handleCacheGet(rw http.ResponseWriter, r *http.Request) {
	var start time.Time
	tc := obs.UpstreamTrace(r.Header)
	if tc != nil {
		start = time.Now()
	}
	// answer stamps SpanHeader with this handler's shard.cache.get span,
	// around the pump's call span when there is one, just before the
	// response is written; the untraced hot path does no timing at all.
	answer := func(outcome string, call *obs.Span) {
		if tc == nil {
			return
		}
		span := &obs.Span{Op: "shard.cache.get", Detail: outcome, Node: w.opt.ID, Start: start, Dur: time.Since(start)}
		if call != nil {
			span.AddChild(call)
		}
		if buf, err := json.Marshal(span); err == nil {
			rw.Header().Set(SpanHeader, string(buf))
		}
	}
	q := r.URL.Query()
	key := q.Get("key")
	if key == "" || w.opt.Cache == nil {
		http.NotFound(rw, r)
		return
	}
	// Peek counts a hit and no miss: a missed key is looked up again, and
	// counted, by the call CallWithRetry registers in the same cache.
	if rows, ok := w.opt.Cache.Peek([]byte(key)); ok {
		w.remoteHits.Add(1)
		answer("hit", nil)
		writeRows(rw, rows)
		return
	}
	w.remoteMisses.Add(1)
	src, err := w.source(q.Get("src"), key)
	if err != nil {
		answer("bad_request", nil)
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	if !w.homes(key) {
		answer("not_home", nil)
		http.NotFound(rw, r)
		return
	}
	ctx := r.Context()
	if tc != nil {
		ctx = obs.WithTrace(ctx, tc)
	}
	rows, _, call, err := w.opt.Pump.CallWithRetry(ctx, src, key)
	if err != nil {
		answer("failed", call)
		http.Error(rw, err.Error(), http.StatusBadGateway)
		return
	}
	answer("miss", call)
	writeRows(rw, rows)
}

// source resolves the source a peer's ask names, through the pump, and
// checks that key is one of its engine's: a call key begins with its
// engine's name and '|' (vtab.Source.AppendKey), and run by another
// source it would cache a wrong answer under key.
func (w *Worker) source(name, key string) (exec.ExternalSource, error) {
	if w.opt.Pump == nil {
		return nil, fmt.Errorf("worker %s runs no calls", w.opt.ID)
	}
	src, err := w.opt.Pump.Source(name)
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(key, src.Destination()+"|") {
		return nil, fmt.Errorf("key %q is not a call of %s", key, src.Destination())
	}
	return src, nil
}

// homes reports whether this worker's own ring makes it key's home.
func (w *Worker) homes(key string) bool {
	if w.opt.Peers == nil {
		return false
	}
	owner, ok := w.opt.Peers.Ring().Owner(key)
	return ok && owner.ID == w.opt.ID
}

func writeRows(rw http.ResponseWriter, rows []types.Tuple) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(cacheGetResponse{Rows: rows})
}

// handleCacheFill stores offered rows: drain's handoff of its hot keys.
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
		w.opt.Peers.Update(req.Workers, req.VNodes)
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
		case <-w.idle:
		}
	}
	w.wakeDrain() // for a concurrent drain waiting on the same wake-up

	handed := 0
	if w.opt.Cache != nil && w.opt.Peers != nil {
		ring := w.opt.Peers.Ring()
		for _, e := range w.opt.Cache.Entries(handoffMax) {
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
	RemoteHits   int64 `json:"remote_hits"`
	RemoteMisses int64 `json:"remote_misses"`
	FillsRecv    int64 `json:"fills_recv"`
	DrainRejects int64 `json:"drain_rejects"`
	HandedOff    int64 `json:"handed_off"`
	Draining     bool  `json:"draining"`
}

// Stats snapshots the shard-protocol counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		RemoteHits:   w.remoteHits.Load(),
		RemoteMisses: w.remoteMisses.Load(),
		FillsRecv:    w.fillsRecv.Load(),
		DrainRejects: w.drainRejects.Load(),
		HandedOff:    w.handedOff.Load(),
		Draining:     w.draining.Load(),
	}
}

// Observe registers the worker's shard-protocol counters.
func (w *Worker) Observe(reg *obs.Registry) {
	reg.CounterFunc("wsq_shard_remote_get_hits_total",
		"Peer cache gets served from this worker's cache (cross-node hits).",
		func() float64 { return float64(w.remoteHits.Load()) })
	reg.CounterFunc("wsq_shard_remote_get_misses_total",
		"Peer cache gets that missed this worker's cache (answered by its pump's call, or refused).",
		func() float64 { return float64(w.remoteMisses.Load()) })
	reg.CounterFunc("wsq_shard_fills_received_total",
		"Cache entries stored on behalf of a draining peer.",
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
