package server

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/search"
)

// TestTraceparentPropagation: a sampled incoming traceparent adopts the
// upstream trace id and ships the span tree back in the response (the
// coordinator's stitching contract); an unsampled one is ignored.
func TestTraceparentPropagation(t *testing.T) {
	env := newTestEnv(t, search.ZeroLatency(), core.Config{}, Options{Node: "w1"})
	tc := obs.NewTraceCtx()

	req, err := http.NewRequest("GET", env.url+"/query?q="+queryEscape(template1Query), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceparentHeader, tc.Traceparent(""))
	hres, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var resp QueryResponse
	if err := json.NewDecoder(hres.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != tc.TraceID {
		t.Errorf("response trace_id = %q, want upstream %q", resp.TraceID, tc.TraceID)
	}
	if resp.Trace == nil {
		t.Fatal("sampled traceparent did not return a span tree")
	}
	if resp.Trace.Op != "wsqd.query" || resp.Trace.Detail != "w1" {
		t.Errorf("root = %s/%s, want wsqd.query/w1", resp.Trace.Op, resp.Trace.Detail)
	}
	if resp.Trace.Find("pump.call") == nil {
		t.Error("no pump.call span under the traced query")
	}

	// Unsampled traceparent: valid header, flags 00 — stays untraced.
	un := &obs.TraceCtx{TraceID: obs.NewTraceID(), Sampled: false}
	req2, _ := http.NewRequest("GET", env.url+"/query?q="+queryEscape(template1Query), nil)
	req2.Header.Set(obs.TraceparentHeader, un.Traceparent(""))
	hres2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer hres2.Body.Close()
	var resp2 QueryResponse
	if err := json.NewDecoder(hres2.Body).Decode(&resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.Trace != nil || resp2.TraceID != "" {
		t.Errorf("unsampled traceparent produced trace_id=%q trace=%v", resp2.TraceID, resp2.Trace != nil)
	}
}

// TestHeadSampling: with -trace-sample 1 every query is captured
// server-side, but the response stays lean — no span tree unless the
// client asked. The tree is retrievable from /debug/traces by id.
func TestHeadSampling(t *testing.T) {
	env := newTestEnv(t, search.ZeroLatency(), core.Config{}, Options{Node: "w1", TraceSampleEvery: 1})

	code, body := httpGet(t, env.url+"/query?q="+queryEscape(template1Query))
	if code != http.StatusOK {
		t.Fatalf("query: %d: %s", code, body)
	}
	var resp QueryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.TraceID) != 32 {
		t.Fatalf("head-sampled query trace_id = %q", resp.TraceID)
	}
	if resp.Trace != nil {
		t.Error("head-sampled response carried the span tree without trace=1")
	}

	code, body = httpGet(t, env.url+"/debug/traces?trace_id="+resp.TraceID)
	if code != http.StatusOK {
		t.Fatalf("/debug/traces lookup: %d: %s", code, body)
	}
	var st obs.StoredTrace
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.Root == nil || st.Root.Op != "wsqd.query" || st.Node != "w1" {
		t.Errorf("stored trace: %+v", st)
	}
	if st.Root.Find("AEVScan") == nil {
		t.Error("stored tree has no AEVScan span")
	}
}

// TestSlowTraceRetention: -trace-slow instruments every query for tail
// capture but stores only the ones that cross the threshold or fail.
func TestSlowTraceRetention(t *testing.T) {
	env := newTestEnv(t, search.ZeroLatency(), core.Config{},
		Options{Node: "w1", SlowTraceThreshold: time.Hour})
	srv := env.srv

	code, body := httpGet(t, env.url+"/query?q="+queryEscape(template1Query))
	if code != http.StatusOK {
		t.Fatalf("query: %d: %s", code, body)
	}
	var resp QueryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	// Instrumented (it has an id) but fast: not stored.
	if resp.TraceID == "" {
		t.Error("slow-threshold query has no trace id")
	}
	if n := srv.TraceSink().Total(); n != 0 {
		t.Errorf("fast query stored %d traces, want 0", n)
	}

	// A failing query is always retained, threshold or not.
	if code, _ = httpGet(t, env.url+"/query?q="+queryEscape("SELECT nope FROM nowhere")); code == http.StatusOK {
		t.Fatal("bad query succeeded")
	}
	if srv.TraceSink().Total() != 1 {
		t.Errorf("error trace not retained: total = %d", srv.TraceSink().Total())
	}

	// With a 1ns threshold everything is slow and everything is stored.
	env2 := newTestEnv(t, search.ZeroLatency(), core.Config{},
		Options{Node: "w1", SlowTraceThreshold: time.Nanosecond})
	srv2 := env2.srv
	if code, _ := httpGet(t, env2.url+"/query?q="+queryEscape(template1Query)); code != http.StatusOK {
		t.Fatal("query failed")
	}
	snap := srv2.TraceSink().Snapshot()
	if len(snap) != 1 || !snap[0].Slow {
		t.Fatalf("slow trace not captured: %+v", snap)
	}
}
