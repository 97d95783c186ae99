// Package server implements wsqd, the multi-client WSQ query daemon: an
// HTTP/JSON front-end that owns one core.DB and executes many SELECTs
// concurrently over the single shared ReqPump.
//
// The paper describes ReqPump as a *global* request manager — "one counter
// to monitor the total number of active requests, and one counter for each
// external destination" — which only becomes interesting when competing
// queries from different users contend for those counters. This package
// supplies that missing serving layer:
//
//   - POST /query (or GET /query?q=...) executes one statement with a
//     per-query deadline; deadline expiry cancels the query's still-queued
//     pump calls and releases its in-flight slots as they drain.
//   - Admission control bounds the blast radius of a traffic spike: at most
//     MaxConcurrentQueries execute at once, at most MaxQueueDepth wait, and
//     everything beyond that is rejected immediately with 503.
//   - GET /statusz exposes the pump counters, per-destination in-flight
//     gauges, cache hit rate, admission state, and per-query latency
//     percentiles.
//   - GET /metrics exposes the DB's metrics registry — pump slot-wait and
//     per-destination call-latency histograms, engine request histograms,
//     server admission counters — in the Prometheus text format.
//   - GET /debug/pprof/* serves the standard Go profiling endpoints.
//   - ?trace=1 (or "trace": true in the POST body) attaches the query's
//     per-operator span tree to the response.
//
// The companion Client (client.go) is the programmatic face used by the
// wsq shell's remote mode and by the benchmark's tier workloads (bench/).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
)

// Options configures a Server. The zero value selects sane defaults.
type Options struct {
	// MaxConcurrentQueries bounds simultaneously executing statements
	// (default 32). Queries beyond the bound wait in the admission queue.
	MaxConcurrentQueries int
	// MaxQueueDepth bounds queries waiting for an execution slot
	// (default 2×MaxConcurrentQueries). Arrivals beyond it get 503.
	MaxQueueDepth int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (default 30s).
	DefaultTimeout time.Duration
	// AllowWrites permits CREATE/DROP/INSERT through /query; by default the
	// server is read-only and such statements get 403.
	AllowWrites bool
	// DefaultDegrade is the failed-call degradation policy applied when a
	// request does not choose one (wsqd -degrade). DegradeFail by default.
	DefaultDegrade exec.DegradePolicy
	// RequestLog, when non-nil, receives one structured (JSON) line per
	// /query request: SQL, outcome, latency, row and call counts.
	RequestLog io.Writer
	// Node names this process in stitched traces ("w1", "coord"); empty
	// for a standalone wsqd.
	Node string
	// TraceSampleEvery head-samples 1 in N queries for distributed
	// tracing (wsqd -trace-sample). 0 disables head sampling; explicit
	// ?trace=1 requests and sampled incoming traceparent headers are
	// always traced regardless.
	TraceSampleEvery int
	// SlowTraceThreshold, when > 0, instruments every query and retains
	// traces of queries slower than the threshold (or erroring) in
	// /debug/traces — the tail-capture policy (wsqd -trace-slow).
	SlowTraceThreshold time.Duration
}

// maxTimeout clamps client-requested timeouts.
const maxTimeout = 5 * time.Minute

func (o *Options) fill() {
	if o.MaxConcurrentQueries <= 0 {
		o.MaxConcurrentQueries = 32
	}
	if o.MaxQueueDepth <= 0 {
		o.MaxQueueDepth = 2 * o.MaxConcurrentQueries
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
}

// Server is the wsqd HTTP front-end over one shared database.
type Server struct {
	db   *core.DB
	opts Options
	mux  *http.ServeMux
	sem  chan struct{}

	// mu guards the admission gauges. They and the counters below are the
	// server's one record: /statusz and /metrics both read it.
	mu     sync.Mutex
	queued int
	active int

	total, failed, rejected, timedOut obs.Counter
	// latency is every query's execution time; /statusz reads its
	// percentiles from here too. maxLatency (ns) is the one thing a
	// bucketed histogram cannot tell.
	latency    *obs.Histogram
	maxLatency atomic.Int64

	logMu sync.Mutex // serializes RequestLog lines

	sampler *obs.Sampler
	traces  *obs.TraceSink

	start time.Time
}

// New builds a server over db. The db's engines and tables must already be
// registered/loaded; the server never mutates them unless AllowWrites.
func New(db *core.DB, opts Options) *Server {
	opts.fill()
	s := &Server{
		db:      db,
		opts:    opts,
		mux:     http.NewServeMux(),
		sem:     make(chan struct{}, opts.MaxConcurrentQueries),
		sampler: obs.NewSampler(opts.TraceSampleEvery),
		traces:  obs.NewTraceSink(),
		latency: obs.NewHistogram(nil),
		start:   time.Now(),
	}
	reg := db.Metrics()
	read := func(c *obs.Counter) func() float64 { return func() float64 { return float64(c.Value()) } }
	reg.CounterFunc("wsq_server_queries_total", "Queries received by /query.", read(&s.total))
	reg.CounterFunc("wsq_server_queries_failed_total", "Queries that returned an error.", read(&s.failed))
	reg.CounterFunc("wsq_server_queries_rejected_total", "Queries rejected by admission control (503).", read(&s.rejected))
	reg.CounterFunc("wsq_server_queries_timedout_total", "Queries whose deadline expired (while queued or executing).", read(&s.timedOut))
	reg.HistogramFunc("wsq_server_query_seconds", "End-to-end query execution latency.", s.latency.Snapshot)
	reg.GaugeFunc("wsq_server_queries_active", "Queries currently executing.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.active)
	})
	reg.GaugeFunc("wsq_server_queries_queued", "Queries waiting for an admission slot.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.queued)
	})
	reg.GaugeFunc("wsq_server_uptime_seconds", "Server uptime.", func() float64 {
		return time.Since(s.start).Seconds()
	})
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.Handle("/debug/traces", s.traces)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// handleMetrics serves the DB registry in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.db.Metrics().WritePrometheus(w)
}

// TraceSink exposes the server's captured-trace ring (tests and the
// coordinator's merged /debug/traces).
func (s *Server) TraceSink() *obs.TraceSink { return s.traces }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// ---------------------------------------------------------------------------
// Admission control

var errOverloaded = errors.New("server overloaded")

// admit blocks until an execution slot is free, the context expires, or
// the wait queue is full. On success the caller must invoke the returned
// release function exactly once.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	// Fast path: a slot is free right now.
	select {
	case s.sem <- struct{}{}:
	default:
		// Slow path: join the bounded wait queue.
		s.mu.Lock()
		if s.queued >= s.opts.MaxQueueDepth {
			s.mu.Unlock()
			s.rejected.Inc()
			return nil, errOverloaded
		}
		s.queued++
		s.mu.Unlock()
		select {
		case s.sem <- struct{}{}:
			s.mu.Lock()
			s.queued--
			s.mu.Unlock()
		case <-ctx.Done():
			s.mu.Lock()
			s.queued--
			s.mu.Unlock()
			return nil, ctx.Err()
		}
	}
	s.mu.Lock()
	s.active++
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
		<-s.sem
	}, nil
}

// ---------------------------------------------------------------------------
// /query

// QueryRequest is the POST /query body.
type QueryRequest struct {
	SQL string `json:"sql"`
	// TimeoutMS bounds the query's wall time (admission wait included);
	// 0 selects the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Degrade selects the failed-call policy for this query: "fail",
	// "drop", or "partial" (empty = the server default).
	Degrade string `json:"degrade,omitempty"`
	// Trace attaches the query's per-operator span tree to the response
	// (GET form: ?trace=1).
	Trace bool `json:"trace,omitempty"`
}

// QueryResponse is the /query success body. Row values are JSON-native:
// null, number, or string.
type QueryResponse struct {
	Columns       []string        `json:"columns"`
	Rows          [][]interface{} `json:"rows"`
	RowCount      int             `json:"row_count"`
	ExternalCalls int64           `json:"external_calls"`
	// DegradedCalls counts external calls whose failure was absorbed by the
	// query's drop/partial degradation policy.
	DegradedCalls int64   `json:"degraded_calls,omitempty"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	// TraceID is the query's tier-wide trace identity, present whenever
	// the query was traced (explicitly, head-sampled, or propagated).
	TraceID string `json:"trace_id,omitempty"`
	// Trace is the per-operator span tree, present when requested with
	// trace=1 or when the incoming traceparent was sampled (the stitching
	// coordinator adds it to the cross-process tree).
	Trace *obs.Span `json:"trace,omitempty"`
}

// ErrorResponse is the /query failure body.
type ErrorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, err := parseQueryRequest(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}

	degrade := s.opts.DefaultDegrade
	if req.Degrade != "" {
		var derr error
		degrade, derr = exec.ParseDegrade(req.Degrade)
		if derr != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: derr.Error()})
			return
		}
	}

	timeout := s.opts.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > maxTimeout {
		timeout = maxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Trace decision. A sampled incoming traceparent (the coordinator or
	// an upstream wsqd already chose to trace this query) or an explicit
	// trace=1 always instruments; otherwise head sampling decides; a
	// slow-trace threshold instruments everything so the tail can be
	// captured after the fact. The untraced path costs one header lookup
	// and one atomic — no allocation.
	tc := obs.UpstreamTrace(r.Header)
	incomingSampled := tc != nil
	headSampled := tc == nil && s.sampler.Sample()
	slowOnly := false // instrumented solely for tail capture: store only if slow/error
	if tc == nil && (req.Trace || headSampled || s.opts.SlowTraceThreshold > 0) {
		slowOnly = !req.Trace && !headSampled
		tc = obs.NewTraceCtx()
	}
	if tc != nil {
		ctx = obs.WithTrace(ctx, tc)
	}

	s.total.Inc()

	release, err := s.admit(ctx)
	if err != nil {
		if errors.Is(err, errOverloaded) {
			w.Header().Set("Retry-After", "1")
			s.logRequest(req, http.StatusServiceUnavailable, 0, nil, err)
			writeJSON(w, http.StatusServiceUnavailable,
				ErrorResponse{Error: fmt.Sprintf("overloaded: %d executing, %d queued", s.opts.MaxConcurrentQueries, s.opts.MaxQueueDepth)})
			return
		}
		s.timedOut.Inc()
		s.logRequest(req, http.StatusGatewayTimeout, 0, nil, err)
		writeJSON(w, http.StatusGatewayTimeout,
			ErrorResponse{Error: "deadline expired while queued for admission"})
		return
	}
	defer release()

	start := time.Now()
	var res *core.Result
	opts := core.QueryOptions{Degrade: &degrade, Trace: req.Trace || tc != nil}
	if s.opts.AllowWrites {
		res, err = s.db.ExecContextOpts(ctx, req.SQL, opts)
	} else {
		res, err = s.db.QueryContextOpts(ctx, req.SQL, opts)
	}
	elapsed := time.Since(start)
	for {
		max := s.maxLatency.Load()
		if int64(elapsed) <= max || s.maxLatency.CompareAndSwap(max, int64(elapsed)) {
			break
		}
	}
	s.latency.ObserveDuration(elapsed)

	// Assemble the query's span tree: a "wsqd.query" root spanning the
	// whole execution over the operator tree, whose AEVScans carry their
	// pump calls (peer hops included) as async children.
	var root *obs.Span
	if tc != nil && res != nil && res.Trace != nil {
		root = &obs.Span{
			Op: "wsqd.query", Detail: s.opts.Node,
			Start: start, Dur: elapsed, Rows: res.Trace.Rows,
		}
		root.AddChild(res.Trace)
	}
	slow := s.opts.SlowTraceThreshold > 0 && elapsed >= s.opts.SlowTraceThreshold
	if tc != nil && (!slowOnly || slow || err != nil) {
		st := &obs.StoredTrace{
			TraceID:   tc.TraceID,
			SQL:       obs.TruncateSQL(req.SQL),
			Node:      s.opts.Node,
			StartedAt: start,
			ElapsedMS: float64(elapsed.Microseconds()) / 1000.0,
			Slow:      slow,
			Root:      root,
		}
		if err != nil {
			st.Error = err.Error()
		}
		s.traces.Add(st)
	}

	if err != nil {
		s.failed.Inc()
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			s.timedOut.Inc()
			status = http.StatusGatewayTimeout
		case errors.Is(err, async.ErrPumpClosed):
			status = http.StatusServiceUnavailable
		case !s.opts.AllowWrites && isWriteRejection(err):
			status = http.StatusForbidden
		}
		s.logRequest(req, status, elapsed, nil, err)
		writeJSON(w, status, ErrorResponse{Error: err.Error()})
		return
	}

	s.logRequest(req, http.StatusOK, elapsed, res, nil)
	resp := QueryResponse{
		Columns:       columnsOrEmpty(res.Columns),
		RowCount:      len(res.Rows),
		ExternalCalls: res.Stats.ExternalCalls,
		DegradedCalls: res.Stats.DegradedCalls,
		ElapsedMS:     float64(elapsed.Microseconds()) / 1000.0,
	}
	if tc != nil {
		resp.TraceID = tc.TraceID
	}
	// The span tree rides the response when the client asked for it or
	// when a sampled upstream (the stitching coordinator) propagated the
	// trace — head-sampled and slow-captured trees stay server-side in
	// /debug/traces.
	if root != nil && (req.Trace || incomingSampled) {
		resp.Trace = root
	}
	body, err := appendQueryResponse(make([]byte, 0, 256+64*len(res.Rows)), &resp, res.Rows)
	if err != nil { // a NaN or infinite cell: JSON has no number for it
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a client that hung up is the only failure, and nobody to tell
}

// requestLogEntry is one structured request-log line.
type requestLogEntry struct {
	Time          string  `json:"t"`
	SQL           string  `json:"sql"`
	Status        int     `json:"status"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	Rows          int     `json:"rows"`
	ExternalCalls int64   `json:"external_calls"`
	Degraded      bool    `json:"degraded,omitempty"`
	Traced        bool    `json:"traced,omitempty"`
	Error         string  `json:"error,omitempty"`
}

// logRequest emits one JSON line per /query request when a request log
// is configured.
func (s *Server) logRequest(req QueryRequest, status int, elapsed time.Duration, res *core.Result, err error) {
	if s.opts.RequestLog == nil {
		return
	}
	e := requestLogEntry{
		Time:      time.Now().UTC().Format(time.RFC3339Nano),
		SQL:       obs.TruncateSQL(req.SQL),
		Status:    status,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000.0,
		Traced:    req.Trace,
	}
	if res != nil {
		e.Rows = len(res.Rows)
		e.ExternalCalls = res.Stats.ExternalCalls
		e.Degraded = res.Stats.DegradedCalls > 0
	}
	if err != nil {
		e.Error = err.Error()
	}
	line, merr := json.Marshal(e)
	if merr != nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	_, _ = s.opts.RequestLog.Write(append(line, '\n'))
}

// isWriteRejection recognizes the read-only path's refusal of non-queries
// (core.QueryContext phrases it as "expected a query, got ...").
func isWriteRejection(err error) bool {
	return err != nil && strings.Contains(err.Error(), "expected a query")
}

func parseQueryRequest(r *http.Request) (QueryRequest, error) {
	var req QueryRequest
	switch r.Method {
	case http.MethodGet:
		req.SQL = r.URL.Query().Get("q")
		if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
			n, err := strconv.Atoi(ms)
			if err != nil {
				return req, fmt.Errorf("bad timeout_ms %q", ms)
			}
			req.TimeoutMS = n
		}
		switch v := r.URL.Query().Get("trace"); v {
		case "", "0", "false":
		case "1", "true":
			req.Trace = true
		default:
			return req, fmt.Errorf("bad trace %q (use trace=1)", v)
		}
	case http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			return req, fmt.Errorf("read request body: %w", err)
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return req, fmt.Errorf("parse request body: %w", err)
		}
	default:
		return req, fmt.Errorf("method %s not allowed; use GET or POST", r.Method)
	}
	if req.TimeoutMS < 0 {
		return req, fmt.Errorf("bad timeout_ms %d", req.TimeoutMS)
	}
	if req.SQL == "" {
		return req, errors.New("missing sql (POST {\"sql\": ...} or GET ?q=...)")
	}
	return req, nil
}

func columnsOrEmpty(cols []string) []string {
	if cols == nil {
		return []string{}
	}
	return cols
}

// ---------------------------------------------------------------------------
// /statusz

// Statusz is the observability snapshot served at /statusz.
type Statusz struct {
	UptimeSeconds float64        `json:"uptime_s"`
	Queries       QueryStats     `json:"queries"`
	Pump          PumpStats      `json:"pump"`
	Cache         *CacheStats    `json:"cache,omitempty"`
	Engines       []string       `json:"engines"`
	DestActive    map[string]int `json:"dest_active"`
}

// QueryStats summarizes the admission layer and per-query latencies.
type QueryStats struct {
	Total     int64       `json:"total"`
	Active    int         `json:"active"`
	Queued    int         `json:"queued"`
	Failed    int64       `json:"failed"`
	Rejected  int64       `json:"rejected"`
	TimedOut  int64       `json:"timed_out"`
	LatencyMS Percentiles `json:"latency_ms"`
}

// PumpStats mirrors async.Stats plus the live gauges.
type PumpStats struct {
	Registered int64 `json:"registered"`
	Started    int64 `json:"started"`
	Completed  int64 `json:"completed"`
	CacheHits  int64 `json:"cache_hits"`
	// PeerHits counts calls served by a peer shard's cache (tier mode).
	PeerHits     int64 `json:"peer_hits"`
	Coalesced    int64 `json:"coalesced"`
	Canceled     int64 `json:"canceled"`
	Retries      int64 `json:"retries"`
	Hedges       int64 `json:"hedges"`
	HedgeWins    int64 `json:"hedge_wins"`
	CallTimeouts int64 `json:"call_timeouts"`
	CallsFailed  int64 `json:"calls_failed"`
	MaxActive    int   `json:"max_active"`
	Active       int   `json:"active"`
	Queued       int   `json:"queued"`
}

// CacheStats summarizes the shared result cache.
type CacheStats struct {
	Entries   int     `json:"entries"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	ps := s.db.Pump().Stats()
	running, queuedCalls := s.db.Pump().Active()
	st := Statusz{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Pump: PumpStats{
			Registered:   ps.Registered,
			Started:      ps.Started,
			Completed:    ps.Completed,
			CacheHits:    ps.CacheHits,
			PeerHits:     ps.PeerHits,
			Coalesced:    ps.Coalesced,
			Canceled:     ps.Canceled,
			Retries:      ps.Retries,
			Hedges:       ps.Hedges,
			HedgeWins:    ps.HedgeWins,
			CallTimeouts: ps.CallTimeouts,
			CallsFailed:  ps.CallsFailed,
			MaxActive:    ps.MaxActive,
			Active:       running,
			Queued:       queuedCalls,
		},
		Engines:    s.db.Engines().Names(),
		DestActive: s.db.Pump().DestActive(),
	}
	s.mu.Lock()
	active, queued := s.active, s.queued
	s.mu.Unlock()
	st.Queries = QueryStats{
		Total:    s.total.Value(),
		Active:   active,
		Queued:   queued,
		Failed:   s.failed.Value(),
		Rejected: s.rejected.Value(),
		TimedOut: s.timedOut.Value(),
	}
	st.Queries.LatencyMS = s.latencyPercentiles()
	if c := s.db.Cache(); c != nil {
		hits, misses := c.Stats()
		cs := &CacheStats{Entries: c.Len(), Hits: hits, Misses: misses, Evictions: c.Evictions()}
		if hits+misses > 0 {
			cs.HitRate = float64(hits) / float64(hits+misses)
		}
		st.Cache = cs
	}
	writeJSON(w, http.StatusOK, st)
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// ---------------------------------------------------------------------------
// Latency percentiles

// Percentiles reports per-query latency over every query since start:
// quantiles interpolated within the wsq_server_query_seconds buckets,
// count and max exact.
type Percentiles struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

func (s *Server) latencyPercentiles() Percentiles {
	h := s.latency.Snapshot()
	p := Percentiles{Count: h.Count, Max: float64(time.Duration(s.maxLatency.Load()).Microseconds()) / 1000.0}
	if h.Count > 0 {
		// Interpolation can overshoot the slowest query's bucket position;
		// the exact max bounds it.
		q := func(f float64) float64 { return math.Min(1000*h.Quantile(f), p.Max) }
		p.P50, p.P90, p.P99 = q(0.50), q(0.90), q(0.99)
	}
	return p
}
