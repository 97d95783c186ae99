package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/search"
)

func queryEscape(s string) string { return url.QueryEscape(s) }

func httpGet(t *testing.T, target string) (int, string) {
	t.Helper()
	resp, err := http.Get(target)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsEndpoint is the observability acceptance test: after one real
// query, /metrics serves lint-clean Prometheus text containing the pump
// slot-wait histogram, the per-destination call-latency histogram for the
// engine the query actually hit, the engine request histogram, and the
// server counters — all from the one shared registry. The query is
// head-sampled, so the page is the one a traced query leaves behind.
func TestMetricsEndpoint(t *testing.T) {
	env := newTestEnv(t, search.ZeroLatency(), core.Config{}, Options{TraceSampleEvery: 1})
	if _, err := env.cl.Query(context.Background(), template1Query, 0); err != nil {
		t.Fatal(err)
	}

	code, body := httpGet(t, env.url+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	if problems := obs.LintExposition(body); len(problems) != 0 {
		t.Errorf("exposition not lint-clean:\n%s", strings.Join(problems, "\n"))
	}
	for _, want := range []string{
		"wsq_pump_slot_wait_seconds_bucket",
		`wsq_pump_call_latency_seconds_bucket{dest="altavista"`,
		`wsq_engine_request_seconds_bucket{engine="altavista"`,
		"wsq_server_queries_total 1",
		"wsq_server_query_seconds_count 1",
		"wsq_pump_calls_registered_total",
		"wsq_server_uptime_seconds",
		"# TYPE wsq_pump_slot_wait_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsConcurrentScrape scrapes /metrics while queries execute; run
// under -race this pins the registry's scrape path against the pump's and
// server's hot-path updates.
func TestMetricsConcurrentScrape(t *testing.T) {
	env := newTestEnv(t, search.ZeroLatency(), core.Config{}, Options{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := env.cl.Query(context.Background(), template1Query, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		if code, _ := httpGet(t, env.url+"/metrics"); code != http.StatusOK {
			t.Errorf("scrape %d: status %d", i, code)
		}
	}
	wg.Wait()
}

// TestQueryTraceRoundTrip requests ?trace=1 and checks the span tree
// arrives in the response: root rows match the row count, a ReqSync node
// is present with the settlement extras, and an untraced request carries
// no trace.
func TestQueryTraceRoundTrip(t *testing.T) {
	env := newTestEnv(t, search.ZeroLatency(), core.Config{}, Options{})

	code, body := httpGet(t, env.url+"/query?trace=1&q="+queryEscape(template1Query))
	if code != http.StatusOK {
		t.Fatalf("traced GET = %d: %s", code, body)
	}
	var resp QueryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("trace=1 response has no trace")
	}
	if resp.Trace.Rows != int64(resp.RowCount) {
		t.Errorf("root span rows = %d, row_count = %d", resp.Trace.Rows, resp.RowCount)
	}
	reqSync := findSpan(resp.Trace, "ReqSync")
	if reqSync == nil {
		t.Fatalf("no ReqSync span in trace: %s", body)
	}
	if reqSync.Extra["settled"] == 0 {
		t.Errorf("ReqSync settled = 0; extras = %v", reqSync.Extra)
	}

	// POST form with "trace": true.
	res, err := env.cl.Query(context.Background(), template1Query, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("untraced query carried a trace")
	}

	// Bad trace values are rejected, not silently ignored.
	if code, _ := httpGet(t, env.url+"/query?trace=yes&q="+queryEscape(template1Query)); code != http.StatusBadRequest {
		t.Errorf("trace=yes: status %d, want 400", code)
	}
}

// TestStatuszGoldenFields guards the /statusz contract now that its
// counters are backed by the metrics registry: every pre-existing field
// must still be present under its original JSON name.
func TestStatuszGoldenFields(t *testing.T) {
	env := newTestEnv(t, search.ZeroLatency(), core.Config{}, Options{})
	if _, err := env.cl.Query(context.Background(), template1Query, 0); err != nil {
		t.Fatal(err)
	}
	code, body := httpGet(t, env.url+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("GET /statusz = %d", code)
	}
	var st map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"uptime_s", "queries", "pump", "engines", "dest_active"} {
		if _, ok := st[key]; !ok {
			t.Errorf("/statusz missing top-level field %q", key)
		}
	}
	var q map[string]json.RawMessage
	if err := json.Unmarshal(st["queries"], &q); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"total", "active", "queued", "failed", "rejected", "timed_out", "latency_ms"} {
		if _, ok := q[key]; !ok {
			t.Errorf("/statusz queries missing field %q", key)
		}
	}
	var qs QueryStats
	if err := json.Unmarshal(st["queries"], &qs); err != nil {
		t.Fatal(err)
	}
	if qs.Total != 1 {
		t.Errorf("queries.total = %d, want 1", qs.Total)
	}
	var p map[string]json.RawMessage
	if err := json.Unmarshal(st["pump"], &p); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"registered", "started", "completed", "cache_hits", "coalesced",
		"canceled", "retries", "hedges", "hedge_wins", "call_timeouts", "calls_failed",
		"max_active", "active", "queued"} {
		if _, ok := p[key]; !ok {
			t.Errorf("/statusz pump missing field %q", key)
		}
	}
}

// TestRequestLog checks the structured per-request log: one JSON line per
// /query with outcome and counts, including error lines.
func TestRequestLog(t *testing.T) {
	var buf syncBuffer
	env := newTestEnv(t, search.ZeroLatency(), core.Config{}, Options{RequestLog: &buf})
	if _, err := env.cl.Query(context.Background(), template1Query, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := env.cl.Query(context.Background(), "SELECT nope FROM nowhere", 0); err == nil {
		t.Fatal("bad query should fail")
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("request log lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	var ok requestLogEntry
	if err := json.Unmarshal([]byte(lines[0]), &ok); err != nil {
		t.Fatal(err)
	}
	if ok.Status != http.StatusOK || ok.Rows == 0 || ok.ExternalCalls == 0 || ok.Error != "" {
		t.Errorf("success line = %+v", ok)
	}
	if !strings.Contains(ok.SQL, "WebCount") {
		t.Errorf("success line SQL = %q", ok.SQL)
	}
	var bad requestLogEntry
	if err := json.Unmarshal([]byte(lines[1]), &bad); err != nil {
		t.Fatal(err)
	}
	if bad.Status == http.StatusOK || bad.Error == "" {
		t.Errorf("error line = %+v", bad)
	}
}

// syncBuffer is a goroutine-safe strings.Builder for log capture.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
