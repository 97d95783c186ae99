package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/websim"
)

// tierNode is one complete wsqd worker: its own DB, engines, metrics
// registry, peer client, and shard-protocol wrapper, on a live listener.
type tierNode struct {
	id     string
	db     *core.DB
	peers  *Peers
	worker *Worker
	srv    *httptest.Server
}

// tierEnv is a loopback tier: n workers plus a coordinator.
type tierEnv struct {
	nodes []*tierNode
	coord *Coordinator
	csrv  *httptest.Server
	cfg   Config
}

// handlersParked is set by the first closeServer that gave up. Handlers
// parked on a leaked lock fail every later tier test the same way, seconds
// at a time, so those skip: the package ends on the first failure, which
// names the lock, and not on its timeout, which names nothing.
var handlersParked atomic.Bool

// closeServer is httptest's Close with a bound. Close waits for every
// running handler, and one parked for good never ends.
func closeServer(t *testing.T, name string, srv *httptest.Server) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Close()
	}()
	if handlersParked.Load() {
		return // already reported; this server's handlers are parked too
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		handlersParked.Store(true)
		t.Errorf("%s: handlers still running 2 s after Close", name)
	}
}

// skipIfHandlersParked keeps a tier test from starting after closeServer
// found handlers it could not wait out.
func skipIfHandlersParked(t *testing.T) {
	t.Helper()
	if handlersParked.Load() {
		t.Skip("an earlier test left handlers parked on a lock; its failure is the one to read")
	}
}

// startTier builds an n-worker loopback tier wired exactly like
// cmd/wsqd's worker and coordinator modes: pump peering attached, shard
// metrics on each worker's registry, membership and budgets pushed by
// the coordinator.
func startTier(t *testing.T, n int, model search.LatencyModel, budgets map[string]int) *tierEnv {
	return startTierSpec(t, tierSpec{n: n, model: model, budgets: budgets})
}

// tierSpec shapes a loopback tier beyond startTier's defaults.
type tierSpec struct {
	n       int
	model   search.LatencyModel
	budgets map[string]int
	// calls is each pump's total and per-destination call limit before
	// the coordinator pushes budgets (default 8).
	calls int
	// altavista, when set, wraps each worker's AltaVista engine.
	altavista func(id string, e search.Engine) search.Engine
}

func startTierSpec(t *testing.T, spec tierSpec) *tierEnv {
	t.Helper()
	skipIfHandlersParked(t)
	if spec.calls == 0 {
		spec.calls = 8
	}
	env := &tierEnv{}
	corpus := websim.Default()
	for i := 0; i < spec.n; i++ {
		id := fmt.Sprintf("w%d", i+1)
		db, err := core.Open(core.Config{
			Dir:                t.TempDir(),
			Async:              true,
			CacheSize:          256,
			MaxConcurrentCalls: spec.calls,
			MaxCallsPerDest:    spec.calls,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		var av search.Engine = search.NewDelayed(websim.NewAltaVista(corpus), spec.model, int64(i+1))
		if spec.altavista != nil {
			av = spec.altavista(id, av)
		}
		db.RegisterEngine(av, "AV")
		db.RegisterEngine(search.NewDelayed(websim.NewGoogle(corpus), spec.model, int64(i+100)), "G")
		if err := harness.LoadPaperTables(context.Background(), db); err != nil {
			t.Fatal(err)
		}
		peers := NewPeers(id, Config{}, PeerOptions{})
		t.Cleanup(peers.Close)
		db.Pump().SetCachePeer(peers)
		w := NewWorker(WorkerOptions{
			ID:    id,
			Inner: server.New(db, server.Options{Node: id}),
			Cache: db.Cache(),
			Pump:  db.Pump(),
			Peers: peers,
		})
		peers.Observe(db.Metrics())
		w.Observe(db.Metrics())
		srv := httptest.NewServer(w)
		t.Cleanup(func() { closeServer(t, id, srv) })
		env.nodes = append(env.nodes, &tierNode{id: id, db: db, peers: peers, worker: w, srv: srv})
	}

	var members []Member
	for _, nd := range env.nodes {
		members = append(members, Member{ID: nd.id, URL: nd.srv.URL})
	}
	env.cfg = Config{Workers: members, VNodes: 32, Budgets: spec.budgets}
	env.coord = NewCoordinator(env.cfg, CoordinatorOptions{})
	t.Cleanup(env.coord.Close)
	if err := env.coord.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	env.csrv = httptest.NewServer(env.coord.Handler())
	t.Cleanup(func() { closeServer(t, "coordinator", env.csrv) })
	return env
}

// query runs one SQL statement through the coordinator and returns the
// HTTP status (plus the decoded row count on 200).
func (e *tierEnv) query(t *testing.T, sql string) (int, int) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"sql": sql})
	resp, err := http.Post(e.csrv.URL+"/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("query via coordinator: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, 0
	}
	var out struct {
		Rows [][]any `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, len(out.Rows)
}

func template1(term string) string {
	return fmt.Sprintf(`SELECT Name, Count FROM States, WebCount
		WHERE Name = T1 AND T2 = '%s' ORDER BY Count DESC LIMIT 3`, term)
}

// termsCoveringWorkers picks search terms whose RouteKeys spread across
// every worker, so the test provably exercises cross-node traffic. The
// ring is deterministic, so this always converges quickly.
func termsCoveringWorkers(t *testing.T, env *tierEnv, per int) []string {
	t.Helper()
	ring := env.coord.ring()
	byWorker := make(map[string][]string)
	candidates := []string{
		"crime", "scuba diving", "education", "parks", "taxes", "beaches",
		"mountains", "museums", "energy", "farming", "lakes", "history",
	}
	for _, term := range candidates {
		m, ok := ring.Owner(RouteKey(template1(term)))
		if !ok {
			t.Fatal("empty ring")
		}
		if len(byWorker[m.ID]) < per {
			byWorker[m.ID] = append(byWorker[m.ID], term)
		}
	}
	var terms []string
	for _, nd := range env.nodes {
		got := byWorker[nd.id]
		if len(got) == 0 {
			t.Fatalf("no candidate term routes to %s; widen the candidate list", nd.id)
		}
		terms = append(terms, got...)
	}
	return terms
}

// template1Decoy keeps the web expression (and therefore every pump
// cache key) identical to template1(term) while adding a decoy literal
// that only filters States — changing the query's RouteKey. This is the
// same-web-work-different-SQL shape (think: same search term behind
// different relational filters) that makes the cache tier-wide useful.
func template1Decoy(term, decoy string) string {
	return fmt.Sprintf(`SELECT Name, Count FROM States, WebCount
		WHERE Name = T1 AND T2 = '%s' AND Name <> '%s' ORDER BY Count DESC LIMIT 3`, term, decoy)
}

// crossNodePair returns two queries with identical WebCount calls that
// the ring assigns to different workers (deterministic: the ring and
// RouteKey are both hash-stable).
func crossNodePair(t *testing.T, env *tierEnv, term string) (string, string) {
	t.Helper()
	ring := env.coord.ring()
	base := template1(term)
	home, ok := ring.Owner(RouteKey(base))
	if !ok {
		t.Fatal("empty ring")
	}
	for i := 0; i < 200; i++ {
		alt := template1Decoy(term, fmt.Sprintf("no-such-state-%d", i))
		if m, _ := ring.Owner(RouteKey(alt)); m.ID != home.ID {
			return base, alt
		}
	}
	t.Fatal("no decoy variant routed off the base worker in 200 tries")
	return "", ""
}

// TestTierCrossNodeCacheHits is the tentpole acceptance test: two
// queries with identical web expressions but different route keys land
// on different workers, so the second worker's pump misses are served by
// the first worker's cache over the peering protocol — visible on the
// pump (peer hits), on the home shard (remote get hits), and on /metrics.
func TestTierCrossNodeCacheHits(t *testing.T) {
	env := startTier(t, 2, search.ZeroLatency(), map[string]int{"altavista": 8})
	base, alt := crossNodePair(t, env, "crime")
	for _, q := range []string{base, alt} {
		code, rows := env.query(t, q)
		if code != http.StatusOK || rows == 0 {
			t.Fatalf("query %q: status=%d rows=%d", q, code, rows)
		}
	}

	var peerHits, remoteHits int64
	for _, nd := range env.nodes {
		peerHits += nd.db.Pump().Stats().PeerHits
		remoteHits += nd.worker.Stats().RemoteHits
	}
	if peerHits == 0 {
		t.Error("no pump peer hits: the tier cache never served a cross-node miss")
	}
	if remoteHits == 0 {
		t.Error("no remote get hits: no worker served its cache to a peer")
	}
	t.Logf("tier traffic: peerHits=%d remoteHits=%d", peerHits, remoteHits)

	// What crossed the wire is what the caches hold: call results. A
	// placeholder is a query's private reference to a pending call; no
	// cached row holds one, so none is ever marshalled to a peer.
	cached := 0
	for _, nd := range env.nodes {
		for _, e := range nd.db.Cache().Entries(1 << 20) {
			for _, row := range e.Rows {
				cached++
				if row.HasPlaceholder() {
					t.Errorf("%s caches a placeholder under %q: %v", nd.id, e.Key, row)
				}
			}
		}
	}
	if cached == 0 {
		t.Error("no cached rows to check")
	}

	// The acceptance criterion is the counter on /metrics, so scrape it.
	var scraped strings.Builder
	for _, nd := range env.nodes {
		resp, err := http.Get(nd.srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		scraped.Write(b)
	}
	seen, nonzero := false, false
	for _, line := range strings.Split(scraped.String(), "\n") {
		if !strings.HasPrefix(line, "wsq_shard_remote_get_hits_total ") {
			continue
		}
		seen = true
		if strings.TrimSpace(strings.TrimPrefix(line, "wsq_shard_remote_get_hits_total")) != "0" {
			nonzero = true
		}
	}
	if !seen {
		t.Error("wsq_shard_remote_get_hits_total missing from /metrics")
	} else if !nonzero {
		t.Error("all workers report zero cross-node cache hits on /metrics")
	}
}

// TestTierIdenticalQueriesOneEngineCall: the same query sent repeatedly
// routes to the same worker and is served from cache after the first
// execution — the tier preserves the paper's single-node caching story.
func TestTierIdenticalQueriesOneEngineCall(t *testing.T) {
	env := startTier(t, 2, search.ZeroLatency(), nil)
	q := template1("crime")
	for i := 0; i < 3; i++ {
		if code, rows := env.query(t, q); code != http.StatusOK || rows == 0 {
			t.Fatalf("round %d: status=%d rows=%d", i, code, rows)
		}
	}
	var started, hits int64
	for _, nd := range env.nodes {
		st := nd.db.Pump().Stats()
		started += st.Started
		hits += st.CacheHits
	}
	// 50 state bindings → ≤ 50 engine calls on the first run; repeats must
	// add none (3 runs of the same query would otherwise triple it).
	if started > 50 {
		t.Errorf("engine executions = %d; repeats re-executed instead of hitting the cache", started)
	}
	if hits == 0 {
		t.Error("no cache hits across the tier for identical queries")
	}
}

// TestTierWorkerRingsFollowTheCoordinator: the coordinator pushes its
// virtual-node count with the membership, so every worker's ring, which
// decides a key's home, names the owner the coordinator's ring names.
// startTierSpec's coordinator uses 32 virtual nodes and its workers'
// peer clients default to 64.
func TestTierWorkerRingsFollowTheCoordinator(t *testing.T) {
	env := startTierSpec(t, tierSpec{n: 3, model: search.ZeroLatency()})
	coord := env.coord.ring()
	for _, nd := range env.nodes {
		ring := nd.peers.Ring()
		for i := 0; i < 1000; i++ {
			key := webCountKey(fmt.Sprintf("state%d near term%d", i%50, i))
			want, _ := coord.Owner(key)
			if got, _ := ring.Owner(key); got.ID != want.ID {
				t.Fatalf("%s: key %q homes on %s, the coordinator's ring says %s", nd.id, key, got.ID, want.ID)
			}
		}
	}
}

// TestTierBudgetSplitReachesWorkers: coordinator Sync pushes
// ceil(budget/N) to every worker's pump, and re-splits after a drain.
func TestTierBudgetSplitReachesWorkers(t *testing.T) {
	env := startTier(t, 2, search.ZeroLatency(), map[string]int{"altavista": 6})
	// Sync ran in startTier: each worker's altavista limit is now 3. The
	// pump exposes limits only behaviorally; assert via statusz shape
	// instead: per-worker split advertised by the coordinator.
	resp, err := http.Get(env.csrv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st coordStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.PerWorker["altavista"] != 3 {
		t.Errorf("per-worker split = %d, want 3", st.PerWorker["altavista"])
	}
	if len(st.Live) != 2 {
		t.Errorf("live = %v", st.Live)
	}

	if _, err := env.coord.Drain(context.Background(), "w1"); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(env.csrv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.PerWorker["altavista"] != 6 {
		t.Errorf("post-drain split = %d, want 6 (whole budget to the survivor)", st.PerWorker["altavista"])
	}
	if len(st.Live) != 1 || st.Live[0].ID != "w2" {
		t.Errorf("post-drain live = %v", st.Live)
	}
}

// TestTierDrainTwice: a second drain of the same worker is refused, and
// the refusal leaves the coordinator serving — /statusz answers within a
// deadline, or the test names the lock the refusal kept.
func TestTierDrainTwice(t *testing.T) {
	env := startTier(t, 2, search.ZeroLatency(), nil)
	if _, err := env.coord.Drain(context.Background(), "w1"); err != nil {
		t.Fatal(err)
	}
	if _, err := env.coord.Drain(context.Background(), "w1"); err == nil || !strings.Contains(err.Error(), "already drained") {
		t.Fatalf("second drain of w1: err = %v, want already drained", err)
	}
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(env.csrv.URL + "/statusz")
	if err != nil {
		lock := ""
		if env.coord.mu.TryLock() {
			env.coord.mu.Unlock()
		} else {
			lock = "; c.mu is held"
		}
		t.Fatalf("/statusz after a refused drain: %v%s", err, lock)
	}
	resp.Body.Close()
}

// TestTierDrainZeroFailures is the drain acceptance test: while a client
// keeps querying through the coordinator, one worker is drained out.
// Every query must succeed — the coordinator routes around the leaver —
// and the drained worker must hand its hot keys to the survivor.
func TestTierDrainZeroFailures(t *testing.T) {
	env := startTier(t, 2, search.ZeroLatency(), map[string]int{"altavista": 8})
	terms := termsCoveringWorkers(t, env, 2)

	// Warm every term so the drained worker has cache entries to hand off.
	for _, term := range terms {
		if code, _ := env.query(t, template1(term)); code != http.StatusOK {
			t.Fatalf("warmup %q failed", term)
		}
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		statuses = map[int]int{}
	)
	stopDrive := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stopDrive:
					return
				default:
				}
				code, _ := env.query(t, template1(terms[(i+c)%len(terms)]))
				mu.Lock()
				statuses[code]++
				mu.Unlock()
				i++
			}
		}(c)
	}

	time.Sleep(30 * time.Millisecond) // let the drive reach steady state
	handed, err := env.coord.Drain(context.Background(), "w1")
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	time.Sleep(30 * time.Millisecond) // post-drain traffic on the survivor
	close(stopDrive)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	total := 0
	for code, n := range statuses {
		total += n
		if code != http.StatusOK {
			t.Errorf("%d queries failed with status %d during drain", n, code)
		}
	}
	if total == 0 {
		t.Fatal("drive issued no queries")
	}
	if handed == 0 {
		t.Error("drained worker handed off zero hot keys")
	}
	if !env.nodes[0].worker.Draining() {
		t.Error("w1 not marked draining")
	}
	// Drained means drained: every query has returned, so neither worker's
	// pump holds a slot or a call record.
	for _, nd := range env.nodes {
		nd.db.Pump().Quiesce()
		running, queued := nd.db.Pump().Active()
		if held := nd.db.Pump().Held(); running != 0 || queued != 0 || held != 0 {
			t.Errorf("%s pump after the drive: %d running, %d queued, %d held; want all zero", nd.id, running, queued, held)
		}
	}
	t.Logf("drain: %d queries (all 200), %d keys handed off", total, handed)
}

// TestTierGetKeepsParameters: the coordinator replays a GET /query as the
// client sent it, so the worker answers it exactly as it would answer the
// client directly — timeout_ms=1 against a slow engine is a 504, not a
// query run out under the worker's 30 s default; trace=true returns the
// stitched tree; a malformed trace value gets the worker's 400.
func TestTierGetKeepsParameters(t *testing.T) {
	env := startTier(t, 2, search.LatencyModel{Base: 100 * time.Millisecond}, nil)
	get := func(base string, params url.Values) (int, string) {
		t.Helper()
		resp, err := http.Get(base + "/query?" + params.Encode())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	slow := url.Values{"q": {template1("gardening")}, "timeout_ms": {"1"}}
	if code, body := get(env.nodes[0].srv.URL, slow); code != http.StatusGatewayTimeout {
		t.Fatalf("worker direct: status %d (%s), want 504", code, body)
	}
	if code, body := get(env.csrv.URL, slow); code != http.StatusGatewayTimeout {
		t.Errorf("via coordinator: status %d (%s), want 504 as from the worker", code, body)
	}

	local := "SELECT Name FROM States LIMIT 2"
	code, body := get(env.csrv.URL, url.Values{"q": {local}, "trace": {"true"}})
	if code != http.StatusOK || !strings.Contains(body, `"op":"coord.query"`) {
		t.Errorf("trace=true via coordinator: status %d, want 200 with the stitched tree:\n%s", code, body)
	}
	if code, body := get(env.csrv.URL, url.Values{"q": {local}, "trace": {"yes"}}); code != http.StatusBadRequest {
		t.Errorf("trace=yes via coordinator: status %d (%s), want the worker's 400", code, body)
	}
}

// TestCoordinatorRelays503RetryAfter: when the last candidate worker
// answers 503, the client gets that answer as the worker wrote it — its
// Retry-After included — with the body's length stated.
func TestCoordinatorRelays503RetryAfter(t *testing.T) {
	const body = `{"error":"overloaded: 1 executing, 1 queued"}` + "\n"
	inner := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		rw.Header().Set("Retry-After", "7")
		rw.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(rw, body)
	})
	_, wsrv := newProtoWorker(t, WorkerOptions{Inner: inner})
	coord := NewCoordinator(Config{Workers: []Member{{ID: "w1", URL: wsrv.URL}}}, CoordinatorOptions{})
	defer coord.Close()
	csrv := httptest.NewServer(coord.Handler())
	defer csrv.Close()

	resp, err := http.Post(csrv.URL+"/query", "application/json", strings.NewReader(`{"sql":"SELECT 1"}`))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || string(got) != body {
		t.Fatalf("HTTP %d %q; want the worker's 503 %q", resp.StatusCode, got, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After %q; want the worker's \"7\"", ra)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Errorf("Content-Length %d for a %d-byte body", resp.ContentLength, len(body))
	}
	if _, err := server.NewClient(csrv.URL).Query(context.Background(), "SELECT 1", 0); !errors.Is(err, server.ErrOverloaded) {
		t.Errorf("client error %v; want ErrOverloaded", err)
	}
}
