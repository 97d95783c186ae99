package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// CoordinatorOptions tunes the tier front door.
type CoordinatorOptions struct {
	// ConfigPath is re-read by Reload (SIGHUP / POST /admin/reload).
	// Empty disables reload.
	ConfigPath string
	// MaxAttempts caps how many distinct workers one query may try
	// (default 3, clamped to the live worker count).
	MaxAttempts int
	// MaxBodyBytes bounds a buffered query body (default 1 MiB); the
	// body must be buffered so a failed attempt can be replayed on the
	// next worker.
	MaxBodyBytes int64
	// Node names this coordinator in stitched traces (default "coord").
	Node string
	// TraceSampleEvery head-samples 1 in N queries that did not ask for
	// a trace themselves (0 disables head sampling).
	TraceSampleEvery int
}

func (o CoordinatorOptions) withDefaults() CoordinatorOptions {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.Node == "" {
		o.Node = "coord"
	}
	return o
}

// Coordinator is the tier's front door: it accepts the ordinary wsqd
// HTTP/JSON query API and routes each query to a worker chosen by
// consistent-hashing its RouteKey, so queries with the same search
// expressions always land where their cache entries live. Worker
// failures (connection errors, 5xx) fail over along the ring's
// successor list — the coordinator itself never originates a 500.
type Coordinator struct {
	opt     CoordinatorOptions
	client  *http.Client
	sampler *obs.Sampler
	traces  *obs.TraceSink

	mu      sync.Mutex
	cfg     Config
	live    *Ring
	drained map[string]bool

	// counters
	queries   atomic.Int64
	reroutes  atomic.Int64
	exhausted atomic.Int64
	badBodies atomic.Int64
	drains    atomic.Int64
	reloads   atomic.Int64
}

// NewCoordinator builds a coordinator over a validated tier config.
func NewCoordinator(cfg Config, opt CoordinatorOptions) *Coordinator {
	return &Coordinator{
		opt:     opt.withDefaults(),
		sampler: obs.NewSampler(opt.TraceSampleEvery),
		traces:  obs.NewTraceSink(),
		cfg:     cfg,
		live:    NewRing(cfg.Workers, cfg.vnodes()),
		drained: make(map[string]bool),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
		}},
	}
}

// Close releases pooled connections.
func (c *Coordinator) Close() { c.client.CloseIdleConnections() }

// ring returns the current live membership view.
func (c *Coordinator) ring() *Ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// Live returns the live (non-drained) members in ID order.
func (c *Coordinator) Live() []Member { return c.ring().Members() }

// Sync pushes the coordinator's view to every live worker: first the
// membership (so peer rings agree), then each engine budget split
// ceil(budget/N) ways. Call once at startup and after any membership
// change.
func (c *Coordinator) Sync(ctx context.Context) error {
	members := c.Live()
	c.mu.Lock()
	vnodes := c.cfg.vnodes()
	budgets := make(map[string]int, len(c.cfg.Budgets))
	for d, b := range c.cfg.Budgets {
		budgets[d] = b
	}
	c.mu.Unlock()

	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, m := range members {
		keep(c.postJSON(ctx, m.URL+"/shard/membership", membershipRequest{Workers: members, VNodes: vnodes}))
	}
	if len(budgets) > 0 && len(members) > 0 {
		limits := make(map[string]int, len(budgets))
		for dest, total := range budgets {
			limits[dest] = SplitBudget(total, len(members))
		}
		for _, m := range members {
			keep(c.postJSON(ctx, m.URL+"/shard/limits", limitsRequest{Limits: limits}))
		}
	}
	return firstErr
}

// Reload re-reads the config file, rebuilds the live ring (still
// excluding drained workers), and re-syncs the tier. Wired to SIGHUP
// and POST /admin/reload in cmd/wsqd.
func (c *Coordinator) Reload(ctx context.Context) error {
	if c.opt.ConfigPath == "" {
		return fmt.Errorf("coordinator: no config path to reload")
	}
	cfg, err := LoadConfig(c.opt.ConfigPath)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.cfg = cfg
	liveMembers := make([]Member, 0, len(cfg.Workers))
	for _, m := range cfg.Workers {
		if !c.drained[m.ID] {
			liveMembers = append(liveMembers, m)
		}
	}
	c.live = NewRing(liveMembers, cfg.vnodes())
	c.mu.Unlock()
	c.reloads.Add(1)
	return c.Sync(ctx)
}

// Drain gracefully removes a worker: take it off the live ring, tell
// every worker (including the leaving one) about the new membership,
// re-split the budgets across the survivors, then ask the worker to
// drain — it finishes in-flight queries and hands its hot cache keys to
// their new homes. Queries arriving meanwhile route to the survivors.
func (c *Coordinator) Drain(ctx context.Context, id string) (handedOff int, err error) {
	c.mu.Lock()
	m, ok := c.cfg.Member(id)
	if !ok {
		c.mu.Unlock()
		return 0, fmt.Errorf("coordinator: unknown worker %q", id)
	}
	if c.drained[id] {
		c.mu.Unlock()
		return 0, fmt.Errorf("coordinator: worker %q already drained", id)
	}
	if c.live.Len() <= 1 {
		c.mu.Unlock()
		return 0, fmt.Errorf("coordinator: refusing to drain the last worker")
	}
	c.drained[id] = true
	c.live = c.live.Without(id)
	c.mu.Unlock()
	c.drains.Add(1)

	// The leaving worker needs the self-excluding view too, so its
	// handoff targets resolve to the survivors.
	members := c.Live()
	c.mu.Lock()
	vnodes := c.cfg.vnodes()
	c.mu.Unlock()
	if err := c.postJSON(ctx, m.URL+"/shard/membership", membershipRequest{Workers: members, VNodes: vnodes}); err != nil {
		return 0, fmt.Errorf("coordinator: pushing membership to draining worker: %w", err)
	}
	if err := c.Sync(ctx); err != nil {
		return 0, err
	}

	var resp drainResponse
	if err := c.postJSONResp(ctx, m.URL+"/shard/drain", struct{}{}, &resp); err != nil {
		return 0, fmt.Errorf("coordinator: drain of %s: %w", id, err)
	}
	return resp.HandedOff, nil
}

func (c *Coordinator) postJSON(ctx context.Context, url string, body any) error {
	return c.postJSONResp(ctx, url, body, nil)
}

func (c *Coordinator) postJSONResp(ctx context.Context, url string, body, out any) error {
	if ctx == nil {
		ctx = context.Background()
	}
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// Handler returns the coordinator's HTTP surface: /query (routed),
// /healthz, /statusz, /admin/drain?id=, /admin/reload.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", c.handleQuery)
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(rw, "ok")
	})
	mux.HandleFunc("/statusz", c.handleStatusz)
	mux.HandleFunc("/admin/drain", c.handleAdminDrain)
	mux.HandleFunc("/admin/reload", c.handleAdminReload)
	mux.Handle("/debug/traces", c.traces)
	return mux
}

// TraceSink exposes the coordinator's stitched-trace ring (tests and
// tooling read it back via /debug/traces).
func (c *Coordinator) TraceSink() *obs.TraceSink { return c.traces }

// handleQuery routes one query. The body is buffered so the same query
// can replay on the next preference-list worker after a connection error
// or retryable 5xx; a worker dying mid-query therefore costs one hop,
// never a client-visible 500.
//
// When the query is traced — the client asked (?trace=1 / "trace":true),
// an upstream propagated a sampled traceparent, or head sampling fired —
// the coordinator mints the tier-wide identity, forwards it to every
// worker attempt as a traceparent header, and stitches the winning
// worker's span tree (shipped back in its JSON response) under its own
// routing timeline: one tree, one trace id, covering both processes and
// every failover hop.
func (c *Coordinator) handleQuery(rw http.ResponseWriter, r *http.Request) {
	c.queries.Add(1)
	sql, rp, wantTrace, ok := c.readQuery(rw, r)
	if !ok {
		return
	}

	tc := obs.UpstreamTrace(r.Header)
	if tc == nil && (wantTrace || c.sampler.Sample()) {
		tc = obs.NewTraceCtx()
	}
	start := time.Now()
	var root *obs.Span
	traceparent := ""
	if tc != nil {
		root = &obs.Span{Op: "coord.query", Detail: obs.TruncateSQL(sql), Node: c.opt.Node, Start: start}
		traceparent = tc.Traceparent()
	}
	finish := func(errMsg string) {
		if root == nil {
			return
		}
		root.Dur = time.Since(start)
		c.traces.Add(&obs.StoredTrace{
			TraceID:   tc.TraceID,
			SQL:       root.Detail,
			Node:      c.opt.Node,
			StartedAt: start,
			ElapsedMS: float64(root.Dur.Microseconds()) / 1000.0,
			Error:     errMsg,
			Root:      root,
		})
	}

	attempts := c.opt.MaxAttempts
	targets := c.ring().Successors(RouteKey(sql), attempts)
	if len(targets) == 0 {
		c.exhausted.Add(1)
		finish("no live workers")
		writeUnavailable(rw, "no live workers")
		return
	}

	for i, m := range targets {
		if i > 0 {
			c.reroutes.Add(1)
		}
		attemptStart := time.Now()
		status, hdr, respBody, err := c.forward(r.Context(), m.URL+"/query", rp, traceparent)
		var att *obs.Span
		if root != nil {
			att = root.AddChild(&obs.Span{Op: "coord.attempt", Detail: m.ID, Node: c.opt.Node, Start: attemptStart, Dur: time.Since(attemptStart)})
			switch {
			case err != nil:
				att.Detail = m.ID + " error"
			case status != http.StatusOK:
				att.Detail = fmt.Sprintf("%s status %d", m.ID, status)
			}
		}
		if err != nil {
			if r.Context().Err() != nil {
				finish("canceled: " + r.Context().Err().Error())
				writeUnavailable(rw, "canceled: "+r.Context().Err().Error())
				return
			}
			continue // connection-level failure: next worker
		}
		if retryableStatus(status) && i < len(targets)-1 {
			continue
		}
		if status >= 500 && status != http.StatusGatewayTimeout && status != http.StatusServiceUnavailable {
			// Never propagate a worker's 500-class surprise as-is; the
			// client sees a retryable unavailable instead.
			c.exhausted.Add(1)
			finish(fmt.Sprintf("worker %s failed (status %d)", m.ID, status))
			writeUnavailable(rw, fmt.Sprintf("worker %s failed (status %d)", m.ID, status))
			return
		}
		if root != nil && status == http.StatusOK {
			respBody = c.stitchResponse(respBody, root, att, m.ID, tc.TraceID, wantTrace)
		}
		errMsg := ""
		if status != http.StatusOK {
			errMsg = fmt.Sprintf("status %d", status)
		}
		finish(errMsg)
		copyResponse(rw, status, hdr, respBody)
		return
	}
	c.exhausted.Add(1)
	finish("all workers unavailable")
	writeUnavailable(rw, "all workers unavailable")
}

// stitchResponse decodes the worker's span tree (the "trace" field of its
// JSON response), anchors it at the winning attempt's start and adds it
// under that attempt, stamps the tier trace id, and re-encodes. The
// response "trace" field carries the stitched tree only when the client
// asked for one — head-sampled trees stay server-side in /debug/traces.
// Any decode failure returns the body unchanged: stitching must never
// break query results.
func (c *Coordinator) stitchResponse(respBody []byte, root, att *obs.Span, workerID, traceID string, wantTrace bool) []byte {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(respBody, &fields); err != nil {
		return respBody
	}
	if raw, ok := fields["trace"]; ok {
		// The worker's execution nests inside the attempt's round trip;
		// the attempt's self time shrinks to the network overhead.
		var wt obs.Span
		if err := json.Unmarshal(raw, &wt); err == nil {
			wt.AnchorAt(att.Start)
			if wt.Node == "" {
				wt.Node = workerID
			}
			att.AddChild(&wt)
		}
		delete(fields, "trace")
	}
	// The root's duration isn't final until finish(); the client-visible
	// tree closes it out at the last attempt's end instead.
	if wantTrace {
		last := root.Children[len(root.Children)-1]
		root.Dur = last.Start.Add(last.Dur).Sub(root.Start)
		if buf, err := json.Marshal(root); err == nil {
			fields["trace"] = buf
		}
	}
	if buf, err := json.Marshal(traceID); err == nil {
		fields["trace_id"] = buf
	}
	out, err := json.Marshal(fields)
	if err != nil {
		return respBody
	}
	return out
}

// replay is the request a worker attempt re-sends: a GET's raw query
// string, or a POST's buffered body and content type.
type replay struct {
	method, rawQuery, contentType string
	body                          []byte
}

// readQuery extracts the SQL (for routing), whether the client asked for a
// trace, and the request to replay. A GET is replayed as received, so
// every parameter the worker reads (timeout_ms, trace) reaches it and a
// malformed one gets the worker's own 400.
func (c *Coordinator) readQuery(rw http.ResponseWriter, r *http.Request) (sql string, rp replay, wantTrace, ok bool) {
	if r.Method == http.MethodGet {
		params := r.URL.Query()
		q := params.Get("q")
		if q == "" {
			c.badBodies.Add(1)
			http.Error(rw, "missing q parameter", http.StatusBadRequest)
			return "", replay{}, false, false
		}
		tr := params.Get("trace")
		return q, replay{method: http.MethodGet, rawQuery: r.URL.RawQuery}, tr == "1" || tr == "true", true
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, c.opt.MaxBodyBytes))
	if err != nil {
		c.badBodies.Add(1)
		http.Error(rw, "unreadable body", http.StatusBadRequest)
		return "", replay{}, false, false
	}
	var req struct {
		SQL   string `json:"sql"`
		Trace bool   `json:"trace"`
	}
	if err := json.Unmarshal(raw, &req); err != nil || req.SQL == "" {
		c.badBodies.Add(1)
		http.Error(rw, "body must be JSON with a sql field", http.StatusBadRequest)
		return "", replay{}, false, false
	}
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		ct = "application/json"
	}
	return req.SQL, replay{method: http.MethodPost, contentType: ct, body: raw}, req.Trace, true
}

// forward replays one query against one worker. A non-empty traceparent
// rides along so the worker joins the tier-wide trace.
func (c *Coordinator) forward(ctx context.Context, url string, rp replay, traceparent string) (int, http.Header, []byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if rp.method == http.MethodGet {
		url += "?" + rp.rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, rp.method, url, bytes.NewReader(rp.body))
	if err != nil {
		return 0, nil, nil, err
	}
	if rp.contentType != "" {
		req.Header.Set("Content-Type", rp.contentType)
	}
	if traceparent != "" {
		req.Header.Set(obs.TraceparentHeader, traceparent)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

// retryableStatus: statuses where the same query may succeed elsewhere.
// 503 is the draining/overload signal; 500/502 cover a worker dying
// behind a proxy. 504 (deadline) is NOT retryable — the client's time
// budget is spent.
func retryableStatus(status int) bool {
	return status == http.StatusServiceUnavailable ||
		status == http.StatusInternalServerError ||
		status == http.StatusBadGateway
}

func writeUnavailable(rw http.ResponseWriter, msg string) {
	rw.Header().Set("Content-Type", "application/json")
	rw.Header().Set("Retry-After", "1")
	rw.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(rw).Encode(map[string]string{"error": msg})
}

func copyResponse(rw http.ResponseWriter, status int, hdr http.Header, body []byte) {
	if ct := hdr.Get("Content-Type"); ct != "" {
		rw.Header().Set("Content-Type", ct)
	}
	rw.WriteHeader(status)
	rw.Write(body)
}

func (c *Coordinator) handleAdminDrain(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "POST only", http.StatusMethodNotAllowed)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		http.Error(rw, "missing id parameter", http.StatusBadRequest)
		return
	}
	handed, err := c.Drain(r.Context(), id)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusConflict)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(map[string]any{"drained": id, "handed_off": handed})
}

func (c *Coordinator) handleAdminReload(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if err := c.Reload(r.Context()); err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(map[string]string{"reloaded": "ok"})
}

// coordStatus is the /statusz JSON shape.
type coordStatus struct {
	Live      []Member       `json:"live"`
	Drained   []string       `json:"drained"`
	Budgets   map[string]int `json:"budgets,omitempty"`
	PerWorker map[string]int `json:"per_worker_limits,omitempty"`
	Queries   int64          `json:"queries"`
	Reroutes  int64          `json:"reroutes"`
	Exhausted int64          `json:"exhausted"`
	Drains    int64          `json:"drains"`
	Reloads   int64          `json:"reloads"`
}

func (c *Coordinator) handleStatusz(rw http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	st := coordStatus{
		Live:    c.live.Members(),
		Budgets: c.cfg.Budgets,
	}
	for id := range c.drained {
		st.Drained = append(st.Drained, id)
	}
	if n := c.live.Len(); n > 0 && len(c.cfg.Budgets) > 0 {
		st.PerWorker = make(map[string]int, len(c.cfg.Budgets))
		for dest, total := range c.cfg.Budgets {
			st.PerWorker[dest] = SplitBudget(total, n)
		}
	}
	c.mu.Unlock()
	sort.Strings(st.Drained)
	st.Queries = c.queries.Load()
	st.Reroutes = c.reroutes.Load()
	st.Exhausted = c.exhausted.Load()
	st.Drains = c.drains.Load()
	st.Reloads = c.reloads.Load()
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(st)
}

// Observe registers the coordinator's counters with an obs registry.
func (c *Coordinator) Observe(reg *obs.Registry) {
	reg.CounterFunc("wsq_coord_queries_total",
		"Queries accepted by the coordinator.",
		func() float64 { return float64(c.queries.Load()) })
	reg.CounterFunc("wsq_coord_reroutes_total",
		"Query attempts failed over to the next ring successor.",
		func() float64 { return float64(c.reroutes.Load()) })
	reg.CounterFunc("wsq_coord_exhausted_total",
		"Queries answered 503 after every candidate worker failed.",
		func() float64 { return float64(c.exhausted.Load()) })
	reg.CounterFunc("wsq_coord_drains_total",
		"Workers drained out of the tier.",
		func() float64 { return float64(c.drains.Load()) })
	reg.CounterFunc("wsq_coord_reloads_total",
		"Config reloads applied (SIGHUP or /admin/reload).",
		func() float64 { return float64(c.reloads.Load()) })
	reg.GaugeFunc("wsq_coord_live_workers",
		"Workers currently on the live ring.",
		func() float64 { return float64(c.ring().Len()) })
}
