package shard

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/search"
)

// tracedQuery runs one SQL statement through the coordinator with
// "trace": true and returns the decoded trace fields.
func (e *tierEnv) tracedQuery(t *testing.T, sql string) (traceID string, root *obs.SpanJSON) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"sql": sql, "trace": true})
	resp, err := http.Post(e.csrv.URL+"/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("traced query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("traced query: status %d: %s", resp.StatusCode, b)
	}
	var out struct {
		TraceID string        `json:"trace_id"`
		Trace   *obs.SpanJSON `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode traced response: %v", err)
	}
	return out.TraceID, out.Trace
}

// TestTierStitchedTraceWithFailover is the acceptance test for tier-wide
// tracing: a 2-worker tier where the route's first-choice worker rejects
// the query (draining) so the coordinator fails over — and the stitched
// tree must show the whole story under one trace id: the rejected
// attempt, the rerouted attempt, and the surviving worker's execution
// subtree (down to its pump calls) grafted beneath it.
func TestTierStitchedTraceWithFailover(t *testing.T) {
	env := startTier(t, 2, search.ZeroLatency(), nil)
	sql := template1("crime")

	targets := env.coord.ring().Successors(RouteKey(sql), 2)
	if len(targets) != 2 {
		t.Fatalf("expected 2 route targets, got %d", len(targets))
	}
	// Make the first-choice worker 503 every query while staying on the
	// ring: the coordinator must reroute mid-query, not re-plan the ring.
	for _, nd := range env.nodes {
		if nd.id == targets[0].ID {
			nd.worker.draining.Store(true)
		}
	}

	traceID, root := env.tracedQuery(t, sql)
	if len(traceID) != 32 {
		t.Fatalf("trace_id = %q, want 32 hex digits", traceID)
	}
	if root == nil {
		t.Fatal("no stitched trace in response")
	}
	if root.Op != "coord.query" || root.Node != "coord" {
		t.Fatalf("root = %s/%s, want coord.query/coord", root.Op, root.Node)
	}

	// Parentage must match the route: attempt[0] against the drainer
	// (failed, empty), attempt[1] against the survivor carrying the
	// worker subtree.
	var attempts []*obs.SpanJSON
	for _, c := range root.Children {
		if c.Op == "coord.attempt" {
			attempts = append(attempts, c)
		}
	}
	if len(attempts) != 2 {
		t.Fatalf("stitched tree has %d coord.attempt spans, want 2 (reroute invisible)", len(attempts))
	}
	if !strings.Contains(attempts[0].Detail, targets[0].ID) || !strings.Contains(attempts[0].Detail, "503") {
		t.Errorf("first attempt detail = %q, want %s + status 503", attempts[0].Detail, targets[0].ID)
	}
	if len(attempts[0].Children) != 0 {
		t.Errorf("failed attempt has %d children, want 0", len(attempts[0].Children))
	}
	if attempts[1].StartUS < attempts[0].StartUS {
		t.Errorf("attempt offsets not monotone: %v then %v", attempts[0].StartUS, attempts[1].StartUS)
	}

	wq := attempts[1].Find("wsqd.query")
	if wq == nil {
		t.Fatal("no wsqd.query span under the rerouted attempt")
	}
	if wq.Node != targets[1].ID {
		t.Errorf("worker subtree node = %q, want %q", wq.Node, targets[1].ID)
	}
	if root.Find("pump.call") == nil {
		t.Error("no pump.call span in the stitched tree")
	}
	if root.Find("AEVScan") == nil {
		t.Error("no AEVScan operator span in the stitched tree")
	}
	// Span count sanity: root + 2 attempts + worker subtree (root, plan
	// operators, pump calls) — the route shape bounds it from below.
	if n := root.CountSpans(); n < 7 {
		t.Errorf("stitched tree has %d spans, want >= 7", n)
	}

	// The coordinator retains the stitched tree server-side too.
	resp, err := http.Get(env.csrv.URL + "/debug/traces?trace_id=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces?trace_id=%s: status %d", traceID, resp.StatusCode)
	}
	var stored obs.StoredTrace
	if err := json.NewDecoder(resp.Body).Decode(&stored); err != nil {
		t.Fatal(err)
	}
	if stored.TraceID != traceID || stored.Root == nil {
		t.Errorf("stored trace: id=%q root=%v", stored.TraceID, stored.Root != nil)
	}
}

// TestTierTracedCachePeerSpan: when a traced query's pump misses locally
// and fetches from the key's home shard, the stitched tree must contain
// the peer round trip and, nested inside it, the home shard's handler
// span (shipped back in the response header) tagged with its node.
func TestTierTracedCachePeerSpan(t *testing.T) {
	env := startTier(t, 2, search.ZeroLatency(), nil)
	base, alt := crossNodePair(t, env, "crime")

	// Warm the home worker's cache untraced.
	if code, rows := env.query(t, base); code != http.StatusOK || rows == 0 {
		t.Fatalf("warmup: status=%d rows=%d", code, rows)
	}

	// The decoy variant routes to the other worker, whose pump must now
	// peer-fetch every key from the home shard.
	traceID, root := env.tracedQuery(t, alt)
	if root == nil {
		t.Fatal("no stitched trace")
	}
	pf := root.Find("shard.peer.fetch")
	if pf == nil {
		t.Fatal("no shard.peer.fetch span in stitched tree")
	}
	if pf.Detail != "hit" {
		t.Errorf("peer fetch detail = %q, want hit", pf.Detail)
	}
	if !pf.Async {
		t.Error("peer fetch span not marked async (it overlaps the operator tree)")
	}
	cg := root.Find("shard.cache.get")
	if cg == nil {
		t.Fatal("no shard.cache.get span: the home shard's handler span was not stitched in")
	}
	homeID, _ := env.coord.ring().Owner(RouteKey(base))
	if cg.Node != homeID.ID {
		t.Errorf("cache.get node = %q, want home shard %q", cg.Node, homeID.ID)
	}
	if cg.Detail != "hit" {
		t.Errorf("cache.get detail = %q, want hit", cg.Detail)
	}
	t.Logf("trace %s: peer fetch %0.fus with remote handler %0.fus on %s", traceID, pf.DurUS, cg.DurUS, cg.Node)
}

// TestTierMetricsLintClean: after a cross-node pair of queries, each
// worker's /metrics (pump, server and shard families on one registry) and
// the coordinator's registry, as wsqd serves them, pass the exposition
// lint.
func TestTierMetricsLintClean(t *testing.T) {
	env := startTier(t, 2, search.ZeroLatency(), nil)
	base, alt := crossNodePair(t, env, "education")
	for _, q := range []string{base, alt} {
		if code, _ := env.query(t, q); code != http.StatusOK {
			t.Fatalf("query failed: %d", code)
		}
	}

	pages := map[string]string{}
	for _, nd := range env.nodes {
		resp, err := http.Get(nd.srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s /metrics: status %d, %v", nd.id, resp.StatusCode, err)
		}
		pages[nd.id] = string(body)
	}
	reg := obs.NewRegistry()
	env.coord.Observe(reg)
	var coord strings.Builder
	if err := reg.WritePrometheus(&coord); err != nil {
		t.Fatal(err)
	}
	pages["coord"] = coord.String()

	for name, page := range pages {
		if !strings.Contains(page, "wsq_") {
			t.Errorf("%s: exposition has no wsq_ families", name)
		}
		if problems := obs.LintExposition(page); len(problems) != 0 {
			t.Errorf("%s: exposition not lint-clean:\n%s", name, strings.Join(problems, "\n"))
		}
	}
}
