package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/shard"
)

// benchTier is the -tier mode summary: the multi-node smoke's evidence
// that the tier-wide cache and graceful drain actually work.
type benchTier struct {
	Workers        int     `json:"workers"`
	Queries        int64   `json:"queries"`
	Errors         int64   `json:"errors"`
	Rejected       int64   `json:"rejected"`
	QPS            float64 `json:"qps"`
	CrossNodeHits  int64   `json:"cross_node_hits"`
	PeerHits       int64   `json:"peer_hits"`
	FillsReceived  int64   `json:"fills_received"`
	DrainHandedOff int     `json:"drain_handed_off"`
	DrainOK        bool    `json:"drain_ok"`
	// Distributed-tracing evidence: one ?trace=1 query through the
	// coordinator must come back as a single stitched span tree.
	TraceID    string `json:"trace_id,omitempty"`
	TraceSpans int    `json:"trace_spans,omitempty"`
	TraceNodes int    `json:"trace_nodes,omitempty"`
	// Tier-merged /profiles evidence.
	ProfileDests   int     `json:"profile_dests,omitempty"`
	ProfileQueries int64   `json:"profile_queries,omitempty"`
	ProfileP95MS   float64 `json:"profile_call_p95_ms,omitempty"`
}

// tierNode is one in-process worker: its own database, engines, cache,
// pump, peer client, and listener.
type tierNode struct {
	id     string
	env    *harness.Env
	peers  *shard.Peers
	worker *shard.Worker
	srv    *http.Server
	url    string
}

// tierBench spins up `workers` wsqd workers plus a coordinator on
// loopback, drives template-1 load through the coordinator (each query
// in two route variants, so identical web expressions provably land on
// different workers), drains one worker mid-run, and fails the process
// if the tier dropped a query or never produced a cross-node cache hit.
func tierBench(model search.LatencyModel, workers, clients int, duration time.Duration, cacheSize, maxTotal, maxDest int) {
	if workers < 2 {
		fatal(fmt.Errorf("-tier needs at least 2 workers"))
	}
	ctx := context.Background()

	var nodes []*tierNode
	var members []shard.Member
	for i := 0; i < workers; i++ {
		id := fmt.Sprintf("w%d", i+1)
		env := newEnv(model, false, maxTotal, maxDest, cacheSize)
		peers := shard.NewPeers(id, shard.Config{}, shard.PeerOptions{})
		env.DB.Pump().SetCachePeer(peers)
		inner := server.New(env.DB, server.Options{
			MaxConcurrentQueries: 4 * clients,
			Node:                 id,
			Profiles:             profile.NewStore(id, env.DB.Pump().DestProfiles),
		})
		w := shard.NewWorker(shard.WorkerOptions{
			ID: id, Inner: inner, Cache: env.DB.Cache(), Pump: env.DB.Pump(), Peers: peers,
		})
		peers.Observe(env.DB.Metrics())
		w.Observe(env.DB.Metrics())
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		hs := &http.Server{Handler: w}
		go hs.Serve(ln)
		url := "http://" + ln.Addr().String()
		nodes = append(nodes, &tierNode{id: id, env: env, peers: peers, worker: w, srv: hs, url: url})
		members = append(members, shard.Member{ID: id, URL: url})
	}
	defer func() {
		for _, nd := range nodes {
			nd.srv.Close()
			nd.peers.Close()
			nd.env.Close()
		}
	}()

	cfg := shard.Config{Workers: members, Budgets: map[string]int{"altavista": 16, "google": 16}}
	coord := shard.NewCoordinator(cfg, shard.CoordinatorOptions{})
	defer coord.Close()
	if err := coord.Sync(ctx); err != nil {
		fatal(err)
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	chs := &http.Server{Handler: coord.Handler()}
	go chs.Serve(cln)
	defer chs.Close()
	coordURL := "http://" + cln.Addr().String()

	fmt.Printf("tier: %d workers + coordinator on %s (latency %v+%v, cache %d)\n",
		workers, coordURL, model.Base, model.Jitter, cacheSize)

	queries := tierQueryPool(members, cfg.VNodes)
	fmt.Printf("workload: %d template-1 route variants (identical web expressions on different workers), %d clients, %v\n",
		len(queries), clients, duration)

	// Drive through the coordinator; drain w1 a third of the way in.
	cl := server.NewClient(coordURL)
	drainAfter := duration / 3
	drainDone := make(chan error, 1)
	go func() {
		t := time.NewTimer(drainAfter)
		defer t.Stop()
		<-t.C
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, coordURL+"/admin/drain?id=w1", nil)
		if err != nil {
			drainDone <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			drainDone <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			drainDone <- fmt.Errorf("drain returned status %d", resp.StatusCode)
			return
		}
		var out struct {
			HandedOff int `json:"handed_off"`
		}
		drainDone <- json.NewDecoder(resp.Body).Decode(&out)
	}()

	res := drive(cl, clients, duration, queries)
	drainErr := <-drainDone

	// One explicitly traced query after the load: the stitched tree is
	// the proof that trace propagation crosses the coordinator/worker
	// boundary (and survives the drained ring).
	traceID, troot, traceErr := tracedTierQuery(ctx, coordURL, queries[0])

	// The coordinator's /profiles must serve the merged worker view.
	prof, profErr := scrapeProfiles(ctx, coordURL+"/profiles")

	// Tally tier-wide evidence.
	var tr benchTier
	tr.Workers = workers
	tr.Queries = res.ok + res.rejected + res.errors
	tr.Errors = res.errors
	tr.Rejected = res.rejected
	tr.QPS = res.qps
	tr.DrainOK = drainErr == nil
	for _, nd := range nodes {
		st := nd.worker.Stats()
		tr.CrossNodeHits += st.RemoteHits
		tr.FillsReceived += st.FillsRecv
		tr.DrainHandedOff += int(st.HandedOff)
		tr.PeerHits += nd.env.DB.Pump().Stats().PeerHits
	}

	if troot != nil {
		tr.TraceID = traceID
		tr.TraceSpans = troot.CountSpans()
		nodes := map[string]bool{}
		troot.Walk(func(s *obs.SpanJSON) {
			if s.Node != "" {
				nodes[s.Node] = true
			}
		})
		tr.TraceNodes = len(nodes)
	}
	if profErr == nil {
		tr.ProfileDests = len(prof.Destinations)
		tr.ProfileQueries = prof.Query.Queries
		for _, d := range prof.Destinations {
			if ms := d.P95 * 1000; ms > tr.ProfileP95MS {
				tr.ProfileP95MS = ms
			}
		}
	}

	fmt.Printf("\ntier results: %d ok, %d rejected, %d errors, %.1f q/s\n", res.ok, res.rejected, res.errors, res.qps)
	fmt.Printf("tier cache: cross-node hits=%d, pump peer hits=%d, fills received=%d\n",
		tr.CrossNodeHits, tr.PeerHits, tr.FillsReceived)
	fmt.Printf("drain: ok=%v, hot keys handed off=%d\n", tr.DrainOK, tr.DrainHandedOff)
	fmt.Printf("trace: id=%s spans=%d nodes=%d\n", tr.TraceID, tr.TraceSpans, tr.TraceNodes)
	fmt.Printf("profiles: dests=%d queries=%d worst call p95=%.1fms\n", tr.ProfileDests, tr.ProfileQueries, tr.ProfileP95MS)

	// Persist the stitched tree next to the -json-out report so CI can
	// upload it as a build artifact.
	if jsonPath != "" && troot != nil {
		artifact := filepath.Join(filepath.Dir(jsonPath), "BENCH_trace.json")
		doc, err := json.MarshalIndent(map[string]any{
			"trace_id": traceID,
			"spans":    tr.TraceSpans,
			"nodes":    tr.TraceNodes,
			"trace":    troot,
		}, "", "  ")
		if err == nil {
			err = os.WriteFile(artifact, doc, 0o644)
		}
		if err != nil {
			fmt.Printf("trace artifact: %v\n", err)
		} else {
			fmt.Printf("stitched trace written to %s\n", artifact)
		}
	}

	// /metrics must corroborate the counters (the operator's view), and
	// on every worker /profiles and /metrics — two views of the pump's one
	// destination table — must count the same engine executions.
	metricsOK := false
	var viewErrs []string
	for _, nd := range nodes {
		if scrapeSum(nd.url+"/metrics", "wsq_shard_remote_get_hits_total") > 0 {
			metricsOK = true
		}
		nd.env.DB.Pump().Quiesce()
		var sn profile.Snapshot
		if err := getJSON(ctx, nd.url+"/profiles?format=snapshot", &sn); err != nil {
			viewErrs = append(viewErrs, fmt.Sprintf("%s /profiles?format=snapshot: %v", nd.id, err))
			continue
		}
		var profiled int64
		for _, ds := range sn.Dests {
			profiled += ds.Calls
		}
		if timed := scrapeSum(nd.url+"/metrics", "wsq_pump_call_latency_seconds_count"); float64(profiled) != timed {
			viewErrs = append(viewErrs, fmt.Sprintf("%s: /profiles counts %d calls but /metrics timed %g executions", nd.id, profiled, timed))
		}
	}

	writeReport(benchReport{
		Mode:          "tier",
		LatencyBaseMS: float64(model.Base.Microseconds()) / 1000.0,
		Tier:          &tr,
	})

	failed := false
	if res.errors > 0 {
		fmt.Printf("FAIL: %d queries errored (the tier must never surface a 500)\n", res.errors)
		failed = true
	}
	if tr.CrossNodeHits == 0 {
		fmt.Println("FAIL: zero cross-node cache hits — the tier cache is not being shared")
		failed = true
	}
	if !metricsOK {
		fmt.Println("FAIL: wsq_shard_remote_get_hits_total not positive on any worker's /metrics")
		failed = true
	}
	if drainErr != nil {
		fmt.Printf("FAIL: drain: %v\n", drainErr)
		failed = true
	}
	for _, e := range viewErrs {
		fmt.Printf("FAIL: %s\n", e)
		failed = true
	}
	if res.ok == 0 {
		fmt.Println("FAIL: no queries succeeded")
		failed = true
	}
	if traceErr != nil {
		fmt.Printf("FAIL: traced tier query: %v\n", traceErr)
		failed = true
	}
	if profErr != nil {
		fmt.Printf("FAIL: coordinator /profiles: %v\n", profErr)
		failed = true
	} else {
		if tr.ProfileDests == 0 {
			fmt.Println("FAIL: coordinator /profiles reports zero destinations (worker merge broken)")
			failed = true
		}
		if tr.ProfileQueries == 0 {
			fmt.Println("FAIL: coordinator /profiles reports zero queries")
			failed = true
		}
		if tr.ProfileP95MS <= 0 {
			fmt.Println("FAIL: coordinator /profiles reports no positive call p95")
			failed = true
		}
	}
	if failed {
		fatal(fmt.Errorf("tier smoke failed"))
	}
	fmt.Println("tier smoke passed: cross-node hits > 0, zero query errors, drain clean, stitched trace + merged profiles served")
}

// tracedTierQuery issues one ?trace=1 query through the coordinator and
// verifies the response carries a single stitched span tree: consistent
// trace id, the coordinator's routing spans, and the worker's execution
// subtree grafted beneath the winning attempt.
func tracedTierQuery(ctx context.Context, coordURL, sql string) (string, *obs.SpanJSON, error) {
	body, err := json.Marshal(map[string]any{"sql": sql, "trace": true})
	if err != nil {
		return "", nil, err
	}
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, coordURL+"/query", strings.NewReader(string(body)))
	if err != nil {
		return "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var out struct {
		TraceID string        `json:"trace_id"`
		Trace   *obs.SpanJSON `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", nil, err
	}
	switch {
	case out.TraceID == "" || len(out.TraceID) != 32:
		return out.TraceID, out.Trace, fmt.Errorf("missing or malformed trace_id %q", out.TraceID)
	case out.Trace == nil:
		return out.TraceID, nil, fmt.Errorf("no stitched trace in response")
	case out.Trace.Op != "coord.query":
		return out.TraceID, out.Trace, fmt.Errorf("root op %q, want coord.query", out.Trace.Op)
	case out.Trace.Find("coord.attempt") == nil:
		return out.TraceID, out.Trace, fmt.Errorf("no coord.attempt span in stitched tree")
	case out.Trace.Find("wsqd.query") == nil:
		return out.TraceID, out.Trace, fmt.Errorf("no worker wsqd.query span in stitched tree (graft failed)")
	case out.Trace.Find("pump.call") == nil:
		return out.TraceID, out.Trace, fmt.Errorf("no pump.call span in stitched tree")
	}
	if wq := out.Trace.Find("wsqd.query"); wq.Node == "" {
		return out.TraceID, out.Trace, fmt.Errorf("worker subtree not tagged with its node id")
	}
	return out.TraceID, out.Trace, nil
}

// tierProfiles mirrors the /profiles JSON document.
type tierProfiles struct {
	Node         string               `json:"node"`
	Destinations []profile.Profile    `json:"destinations"`
	Query        profile.QueryProfile `json:"query"`
}

// scrapeProfiles fetches and decodes a /profiles endpoint.
func scrapeProfiles(ctx context.Context, url string) (*tierProfiles, error) {
	var out tierProfiles
	if err := getJSON(ctx, url, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// getJSON fetches url and decodes its JSON body into out.
func getJSON(ctx context.Context, url string, out any) error {
	rctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// tierQueryPool builds the multi-node workload: for every template-1
// constant, the plain query plus a decoy-literal variant whose RouteKey
// lands on a different worker. Both issue identical WebCount calls, so
// running them exercises the cache peering path by construction.
func tierQueryPool(members []shard.Member, vnodes int) []string {
	ring := shard.NewRing(members, vnodes)
	base := template1Pool()
	var out []string
	for _, q := range base {
		out = append(out, q)
		home, ok := ring.Owner(shard.RouteKey(q))
		if !ok {
			continue
		}
		for i := 0; i < 200; i++ {
			alt := strings.Replace(q, " WHERE ", fmt.Sprintf(" WHERE Name <> 'no-such-state-%d' AND ", i), 1)
			if m, _ := ring.Owner(shard.RouteKey(alt)); m.ID != home.ID {
				out = append(out, alt)
				break
			}
		}
	}
	return out
}

// scrapeSum fetches a Prometheus text exposition and returns the sum of
// the named family's samples — its one sample when unlabelled, all label
// children otherwise (-1 if absent or unreachable).
func scrapeSum(url, name string) float64 {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return -1
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return -1
	}
	sum, found := 0.0, false
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name+" ") && !strings.HasPrefix(line, name+"{") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err != nil {
			return -1
		}
		sum, found = sum+v, true
	}
	if !found {
		return -1
	}
	return sum
}
