package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/search"
	"repro/internal/websim"
)

// testEnv is one wsqd stack: a DB with simulated engines and the paper
// tables, served over a real HTTP listener, plus a Client pointed at it.
type testEnv struct {
	db  *core.DB
	cl  *Client
	url string
	srv *Server
}

func newTestEnv(t *testing.T, model search.LatencyModel, cfg core.Config, opts Options) *testEnv {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	cfg.Async = true
	db, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	corpus := websim.Default()
	db.RegisterEngine(search.NewDelayed(websim.NewAltaVista(corpus), model, 1), "AV")
	db.RegisterEngine(search.NewDelayed(websim.NewGoogle(corpus), model, 2), "G")
	if err := harness.LoadPaperTables(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	srv := New(db, opts)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return &testEnv{db: db, cl: NewClient(hs.URL), url: hs.URL, srv: srv}
}

// template1Query sorts on the async attribute (the ReqSync stays below the
// Sort, so output order is deterministic) and limits to the distinct-count
// prefix so ties cannot reorder across runs.
const template1Query = `SELECT Name, Count FROM States, WebCount
	WHERE Name = T1 AND T2 = 'scuba diving' ORDER BY Count DESC LIMIT 3`

// TestConcurrentClientsShareBoundedPump is the core acceptance test for the
// serving layer: 8 concurrent clients fire multi-call queries at one wsqd
// and (a) every client sees exactly the single-client result, (b) the total
// number of in-flight external calls never exceeds the shared pump's
// MaxConcurrentCalls even though the clients together want far more.
func TestConcurrentClientsShareBoundedPump(t *testing.T) {
	const limit = 4
	env := newTestEnv(t, search.ZeroLatency(),
		core.Config{MaxConcurrentCalls: limit, MaxCallsPerDest: limit}, Options{})

	ref, err := env.cl.Query(context.Background(), template1Query, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) == 0 {
		t.Fatal("reference query returned no rows")
	}
	want := mustJSON(t, ref.Rows)

	const clients, perClient = 8, 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				res, err := env.cl.Query(context.Background(), template1Query, 0)
				if err != nil {
					errs <- err
					return
				}
				if got := mustJSON(t, res.Rows); got != want {
					errs <- fmt.Errorf("concurrent result diverged:\n got %s\nwant %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := env.db.Pump().Stats()
	if st.MaxActive > limit {
		t.Errorf("pump MaxActive = %d, exceeds MaxConcurrentCalls = %d", st.MaxActive, limit)
	}
	if st.Registered < int64(clients*perClient) {
		t.Errorf("pump Registered = %d; every query should register external calls", st.Registered)
	}
}

// TestAggregateThroughputScales drives single-external-call queries (so the
// per-destination limit is never the bottleneck) in bench-latency mode:
// 8 clients must achieve at least 3x the aggregate throughput of 1 client,
// because the shared pump overlaps their calls.
func TestAggregateThroughputScales(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based test")
	}
	model := search.LatencyModel{Base: 20 * time.Millisecond, CountFactor: 1}
	env := newTestEnv(t, model, core.Config{}, Options{})
	if _, err := env.db.ExecContext(context.Background(), `CREATE TABLE Probe (Name VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	if _, err := env.db.ExecContext(context.Background(), `INSERT INTO Probe VALUES ('Hawaii')`); err != nil {
		t.Fatal(err)
	}
	query := func(tag string, i int) string {
		return fmt.Sprintf(`SELECT Name, Count FROM Probe, WebCount
			WHERE Name = T1 AND T2 = 'probe %s %d'`, tag, i)
	}

	const perClient = 6
	run := func(clients int, tag string) float64 {
		var wg sync.WaitGroup
		start := time.Now()
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					if _, err := env.cl.Query(context.Background(),
						query(fmt.Sprintf("%s-%d", tag, c), i), 0); err != nil {
						errs <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		return float64(clients*perClient) / time.Since(start).Seconds()
	}

	base := run(1, "base")
	loaded := run(8, "load")
	if ratio := loaded / base; ratio < 3 {
		t.Errorf("aggregate throughput ratio = %.1fx (1 client %.1f q/s, 8 clients %.1f q/s); want >= 3x",
			ratio, base, loaded)
	}
	if st := env.db.Pump().Stats(); st.MaxActive > async.DefaultMaxTotal {
		t.Errorf("pump MaxActive = %d, exceeds limit %d", st.MaxActive, async.DefaultMaxTotal)
	}
}

// TestDeadlineCancelsQueuedCalls sends a query whose deadline is far shorter
// than one external call: the client must get a deadline error, and the
// query's queued pump calls must be dropped rather than leaked — the pump
// drains back to (0 running, 0 queued).
func TestDeadlineCancelsQueuedCalls(t *testing.T) {
	model := search.LatencyModel{Base: 200 * time.Millisecond, CountFactor: 1}
	env := newTestEnv(t, model, core.Config{}, Options{})

	_, err := env.cl.Query(context.Background(), template1Query, 1*time.Millisecond)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("1ms-deadline query: got %v, want ErrDeadline", err)
	}

	// Running calls finish on their own (~200ms); queued ones must be
	// dropped at dispatch. Poll until the pump is fully drained.
	deadline := time.Now().Add(5 * time.Second)
	for {
		running, queued := env.db.Pump().Active()
		if running == 0 && queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pump did not drain: %d running, %d queued", running, queued)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := env.db.Pump().Stats(); st.Canceled == 0 {
		t.Error("expected canceled > 0: the deadline should drop queued calls")
	}
	if held := env.db.Pump().Held(); held != 0 {
		t.Errorf("drained pump still holds %d call records", held)
	}

	// The pump must still be healthy for the next query.
	if _, err := env.cl.Query(context.Background(), template1Query, 30*time.Second); err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
}

// TestAdmissionControlRejectsOverflow: with one slot and a queue of one,
// four concurrent queries end as some served and some rejected with a 503
// the client surfaces as ErrOverloaded, and /statusz counts the rejections.
// The queries go straight to the handler: an admission path that leaks s.mu
// parks every later handler on it, and an httptest server's Close would
// wait for those forever, so the failure would be the package's timeout
// and not this test's message.
func TestAdmissionControlRejectsOverflow(t *testing.T) {
	model := search.LatencyModel{Base: 100 * time.Millisecond, CountFactor: 1}
	env := newTestEnv(t, model, core.Config{},
		Options{MaxConcurrentQueries: 1, MaxQueueDepth: 1})
	body, err := json.Marshal(QueryRequest{SQL: template1Query})
	if err != nil {
		t.Fatal(err)
	}

	const n = 4
	done := make(chan *httptest.ResponseRecorder, n+1) // every handler below sends once
	serve := func(req *http.Request) {
		rec := httptest.NewRecorder()
		env.srv.ServeHTTP(rec, req)
		done <- rec
	}
	for i := 0; i < n; i++ {
		go serve(httptest.NewRequest("POST", "/query", bytes.NewReader(body)))
	}
	// A query is two 100 ms waves; 10 s means a handler is parked for good.
	timeout := time.After(10 * time.Second)
	await := func(what string) *httptest.ResponseRecorder {
		select {
		case rec := <-done:
			return rec
		case <-timeout:
			t.Fatalf("%s did not return: %s", what, env.admissionState())
			return nil
		}
	}
	var ok, other int
	var rejected []*httptest.ResponseRecorder
	for i := 0; i < n; i++ {
		switch rec := await(fmt.Sprintf("query %d of %d", i+1, n)); rec.Code {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			rejected = append(rejected, rec)
		default:
			other++
		}
	}
	if other != 0 {
		t.Errorf("unexpected errors: %d", other)
	}
	if ok == 0 || len(rejected) == 0 {
		t.Fatalf("got %d ok / %d rejected out of %d; want both nonzero", ok, len(rejected), n)
	}

	// The client's half: that rejection, replayed byte for byte, is ErrOverloaded.
	replay := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(rejected[0].Code)
		w.Write(rejected[0].Body.Bytes())
	}))
	defer replay.Close()
	if _, err := NewClient(replay.URL).Query(context.Background(), template1Query, 0); !errors.Is(err, ErrOverloaded) {
		t.Errorf("client error for the server's rejection = %v, want ErrOverloaded", err)
	}

	go serve(httptest.NewRequest("GET", "/statusz", nil))
	var st Statusz
	if err := json.Unmarshal(await("/statusz").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Queries.Rejected != int64(len(rejected)) {
		t.Errorf("statusz rejected = %d, want %d", st.Queries.Rejected, len(rejected))
	}
	if st.Queries.Active != 0 || st.Queries.Queued != 0 {
		t.Errorf("after every query returned: active=%d queued=%d, want 0/0", st.Queries.Active, st.Queries.Queued)
	}
}

// admissionState reads the admission counters for a failure message,
// without parking on a lock the failure may be about.
func (e *testEnv) admissionState() string {
	if !e.srv.mu.TryLock() {
		return "s.mu is held, so active and queued cannot be read: a return path kept the lock"
	}
	defer e.srv.mu.Unlock()
	return fmt.Sprintf("s.mu is free, active=%d queued=%d", e.srv.active, e.srv.queued)
}

// TestStatuszAnswersDuringSlowQuery: /statusz takes s.mu, so it must
// answer while a query waits on a 300 ms engine. A handler that ran the
// query under s.mu would hold /statusz for the query's whole run (two
// waves of calls); 200 ms leaves room for a slow runner under -race.
func TestStatuszAnswersDuringSlowQuery(t *testing.T) {
	model := search.LatencyModel{Base: 300 * time.Millisecond, CountFactor: 1}
	env := newTestEnv(t, model, core.Config{}, Options{})
	errc := make(chan error, 1)
	go func() {
		_, err := env.cl.Query(context.Background(), template1Query, 0)
		errc <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if running, _ := env.db.Pump().Active(); running > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the query never reached its engines")
		}
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := env.cl.Status(ctx); err != nil {
		t.Errorf("/statusz during a query: %v after %v: s.mu is held across a query", err, time.Since(start))
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestParseQueryRequestTimeout: timeout_ms is a non-negative integer in
// both forms; anything else is a 400, never a different deadline.
func TestParseQueryRequestTimeout(t *testing.T) {
	for _, tc := range []struct {
		ms string
		ok bool
	}{{"10abc", false}, {"1e3", false}, {"-5", false}, {"250", true}} {
		forms := map[string]*http.Request{
			"GET":  httptest.NewRequest("GET", "/query?q=SELECT+1&timeout_ms="+tc.ms, nil),
			"POST": httptest.NewRequest("POST", "/query", strings.NewReader(`{"sql":"SELECT 1","timeout_ms":`+tc.ms+`}`)),
		}
		for form, r := range forms {
			req, err := parseQueryRequest(r)
			switch {
			case tc.ok && (err != nil || req.TimeoutMS != 250):
				t.Errorf("%s timeout_ms=%s: %d ms, error %v; want 250 ms", form, tc.ms, req.TimeoutMS, err)
			case !tc.ok && err == nil:
				t.Errorf("%s timeout_ms=%s: accepted as %d ms; want an error", form, tc.ms, req.TimeoutMS)
			}
		}
	}
}

// TestClientStatusChecksHTTPStatus: a /statusz answer that is not 200 is
// an error, not a zero snapshot.
func TestClientStatusChecksHTTPStatus(t *testing.T) {
	for _, code := range []int{http.StatusServiceUnavailable, http.StatusNotFound, http.StatusInternalServerError} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, code, ErrorResponse{Error: "draining"})
		}))
		st, err := NewClient(srv.URL).Status(context.Background())
		srv.Close()
		if err == nil {
			t.Errorf("HTTP %d: snapshot %+v and no error", code, st)
		} else if code == http.StatusServiceUnavailable && !errors.Is(err, ErrOverloaded) {
			t.Errorf("HTTP 503: error %v, want ErrOverloaded", err)
		}
	}
}

// TestReadOnlyRejectsWrites: without AllowWrites, DDL/DML through /query is
// refused with 403 and the tables stay untouched.
func TestReadOnlyRejectsWrites(t *testing.T) {
	env := newTestEnv(t, search.ZeroLatency(), core.Config{}, Options{})
	resp, err := http.Post(env.url+"/query", "application/json",
		strings.NewReader(`{"sql": "CREATE TABLE Evil (X INT)"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("write on read-only server: HTTP %d, want 403", resp.StatusCode)
	}
	if _, ok := env.db.Catalog().Get("Evil"); ok {
		t.Error("write executed despite read-only mode")
	}
	if _, err := env.cl.Query(context.Background(), `CREATE TABLE Evil (X INT)`, 0); err == nil {
		t.Error("client write on read-only server should error")
	}
	// EXPLAIN ANALYZE takes only a query, on any server: a write under it
	// is a bad request, not a refused write.
	resp2, err := http.Post(env.url+"/query", "application/json",
		strings.NewReader(`{"sql": "EXPLAIN ANALYZE INSERT INTO States VALUES ('Evil', 1, 'X')"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("EXPLAIN ANALYZE of a write on read-only server: HTTP %d, want 400", resp2.StatusCode)
	}
}

// TestStatuszAndGetQuery exercises the GET /query path and checks that
// /statusz reflects the queries it served.
func TestStatuszAndGetQuery(t *testing.T) {
	env := newTestEnv(t, search.ZeroLatency(), core.Config{CacheSize: 64}, Options{})

	resp, err := http.Get(env.url + "/query?q=" + strings.ReplaceAll(
		"SELECT Name FROM States ORDER BY Name LIMIT 2", " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || qr.RowCount != 2 {
		t.Fatalf("GET /query: HTTP %d, %d rows", resp.StatusCode, qr.RowCount)
	}

	// Same external call twice: the second run must hit the result cache.
	for i := 0; i < 2; i++ {
		if _, err := env.cl.Query(context.Background(), template1Query, 0); err != nil {
			t.Fatal(err)
		}
	}
	st, err := env.cl.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries.Total != 3 {
		t.Errorf("statusz total = %d, want 3", st.Queries.Total)
	}
	if st.Queries.LatencyMS.Count != 3 {
		t.Errorf("latency count = %d, want 3", st.Queries.LatencyMS.Count)
	}
	if st.Pump.Registered == 0 || st.Pump.CacheHits == 0 {
		t.Errorf("pump stats: registered=%d cache_hits=%d; want both nonzero",
			st.Pump.Registered, st.Pump.CacheHits)
	}
	if st.Cache == nil || st.Cache.Hits == 0 {
		t.Errorf("cache stats missing or zero hits: %+v", st.Cache)
	}
	if len(st.Engines) != 2 {
		t.Errorf("engines = %v, want 2 entries", st.Engines)
	}

	// Liveness.
	hr, err := http.Get(env.url + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", hr.StatusCode, err)
	}
	hr.Body.Close()
}

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
