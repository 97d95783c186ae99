package server

import (
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

// TestAdmissionControlRejectsOverflow saturates a 1-slot/1-queue server with
// 4 simultaneous slow queries: some execute, the overflow gets an immediate
// 503 surfaced as ErrOverloaded.
func TestAdmissionControlRejectsOverflow(t *testing.T) {
	model := search.LatencyModel{Base: 100 * time.Millisecond, CountFactor: 1}
	env := newTestEnv(t, model, core.Config{},
		Options{MaxConcurrentQueries: 1, MaxQueueDepth: 1})

	const n = 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ok, rejected, other int
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := env.cl.Query(context.Background(), template1Query, 0)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrOverloaded):
				rejected++
			default:
				other++
			}
		}()
	}
	wg.Wait()
	if other != 0 {
		t.Errorf("unexpected errors: %d", other)
	}
	if ok == 0 || rejected == 0 {
		t.Errorf("got %d ok / %d rejected out of %d; want both nonzero", ok, rejected, n)
	}
	st, err := env.cl.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries.Rejected != int64(rejected) {
		t.Errorf("statusz rejected = %d, want %d", st.Queries.Rejected, rejected)
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
