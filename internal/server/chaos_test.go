package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/leakcheck"
	"repro/internal/search"
	"repro/internal/websim"
)

// The chaos suite: many concurrent clients against a wsqd whose engines
// inject transient faults on almost a third of calls, with a retry budget
// shallow enough that some calls exhaust it and hit the degradation path.

// newChaosEnv builds a wsqd stack over Flaky-wrapped engines.
func newChaosEnv(t *testing.T, faultProb float64, retry async.RetryPolicy) *testEnv {
	t.Helper()
	db, err := core.Open(core.Config{Dir: t.TempDir(), Async: true, Retry: retry})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	corpus := websim.Default()
	model := search.LatencyModel{Base: 2 * time.Millisecond, Jitter: time.Millisecond, CountFactor: 0.8}
	avRng, gRng := search.NewRand(31), search.NewRand(32)
	faults := search.TransientOnly(faultProb)
	db.RegisterEngine(search.NewFlaky(search.NewDelayedRand(websim.NewAltaVista(corpus), model, avRng), faults, avRng), "AV")
	db.RegisterEngine(search.NewFlaky(search.NewDelayedRand(websim.NewGoogle(corpus), model, gRng), faults, gRng), "G")
	if err := harness.LoadPaperTables(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(New(db, Options{MaxConcurrentQueries: 16, MaxQueueDepth: 64}))
	t.Cleanup(hs.Close)
	return &testEnv{db: db, cl: NewClient(hs.URL), url: hs.URL}
}

// pumpState renders what a timed-out query's failure message needs: the
// pump's own view of what is running, queued, held and in flight where.
func pumpState(p *async.Pump) string {
	running, queued := p.Active()
	return fmt.Sprintf("pump: running=%d queued=%d held=%d in flight per destination=%v",
		running, queued, p.Held(), p.DestActive())
}

// TestChaosConcurrentClientsDegradeCleanly drives 8 concurrent clients with
// drop/partial degradation against 30%% transient-fault engines and asserts
// the serving contract: transient faults never surface as HTTP errors, no
// goroutine leaks, gauges return to zero, and /statusz shows the retry and
// degradation machinery actually fired.
func TestChaosConcurrentClientsDegradeCleanly(t *testing.T) {
	// Two attempts at 30% faults: ~9% of calls exhaust retries, so the
	// degradation path is exercised heavily but queries still finish fast.
	env := newChaosEnv(t, 0.3, async.RetryPolicy{
		MaxAttempts: 2,
		BaseBackoff: 200 * time.Microsecond,
		JitterFrac:  0.5,
	})
	base := runtime.NumGoroutine()

	const clients, perClient = 8, 6
	policies := []exec.DegradePolicy{exec.DegradeDrop, exec.DegradePartial}
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < perClient; q++ {
				pol := policies[(c+q)%len(policies)]
				req := QueryRequest{
					SQL:     fmt.Sprintf(`SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = 'term%d'`, (c*perClient+q)%5),
					Degrade: pol.String(),
					// Milliseconds of work. The default (30 s) would let a
					// leaked pump slot cost 8 clients x 6 queries x 30 s.
					TimeoutMS: 5000,
				}
				res, err := env.cl.QueryOpts(context.Background(), req)
				if err != nil {
					errs <- fmt.Errorf("client %d query %d (%s): %w (%s)", c, q, pol, err, pumpState(env.db.Pump()))
					return // one failure per client says it; the rest would wait as long
				}
				if pol == exec.DegradePartial && res.RowCount != 50 {
					errs <- fmt.Errorf("client %d query %d: partial policy lost rows: %d of 50", c, q, res.RowCount)
				}
				if pol == exec.DegradeDrop && res.RowCount > 50 {
					errs <- fmt.Errorf("client %d query %d: drop policy grew rows: %d", c, q, res.RowCount)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Idle keep-alive connections each hold serve/read goroutines; drop
	// them so the leak check sees only what the query path left behind.
	env.cl.http.CloseIdleConnections()
	// The pump keeps its execution goroutines parked while the DB is open;
	// Quiesce sends them home. It waits for every running execution too,
	// so a leaked slot would hang it: bound it and fail by name.
	quiesced := make(chan struct{})
	go func() {
		env.db.Pump().Quiesce()
		close(quiesced)
	}()
	select {
	case <-quiesced:
	case <-time.After(5 * time.Second):
		t.Fatalf("pump did not quiesce within 5 s (%s)", pumpState(env.db.Pump()))
	}
	leakcheck.Settle(t, base)

	st, err := env.cl.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries.Active != 0 || st.Queries.Queued != 0 {
		t.Errorf("gauges did not return to zero: active=%d queued=%d", st.Queries.Active, st.Queries.Queued)
	}
	if st.Queries.Active < 0 || st.Queries.Queued < 0 || st.Pump.Active < 0 {
		t.Errorf("negative gauge: active=%d queued=%d pump-active=%d",
			st.Queries.Active, st.Queries.Queued, st.Pump.Active)
	}
	if st.Queries.Failed != 0 {
		t.Errorf("%d queries failed despite drop/partial degradation", st.Queries.Failed)
	}
	if st.Pump.Retries == 0 {
		t.Error("/statusz shows zero retries under 30% fault injection")
	}
	if st.Pump.CallsFailed == 0 {
		t.Error("retry budget of 2 at 30% faults should exhaust sometimes; CallsFailed is 0")
	}
	if st.Pump.Active != 0 {
		t.Errorf("pump active = %d after all queries returned", st.Pump.Active)
	}
	if held := env.db.Pump().Held(); held != 0 {
		t.Errorf("pump holds %d call records after all queries returned", held)
	}
}

// TestChaosFailPolicySurfaces500ButRecovers: with the default fail policy a
// retry-exhausted transient fault errors the query (HTTP 500), but the
// server keeps serving and its gauges stay consistent.
func TestChaosFailPolicySurfaces500ButRecovers(t *testing.T) {
	env := newChaosEnv(t, 0.6, async.RetryPolicy{MaxAttempts: 1})
	sawError := false
	for i := 0; i < 10 && !sawError; i++ {
		_, err := env.cl.Query(context.Background(),
			`SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = 'chaos' LIMIT 3`, 0)
		sawError = err != nil
	}
	if !sawError {
		t.Fatal("60% faults with no retries never failed a fail-policy query")
	}
	st, err := env.cl.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries.Failed == 0 {
		t.Error("failed-query counter did not record the failure")
	}
	if st.Queries.Active != 0 {
		t.Errorf("active gauge stuck at %d", st.Queries.Active)
	}
}

// TestRequestWithoutPolicyGetsTheDBDefault: the server has no degradation
// policy of its own. Over a DB whose default is drop, with engines that
// fail every call, a request that names no policy gets 200 with its
// failed calls dropped, and one that names fail gets the error.
func TestRequestWithoutPolicyGetsTheDBDefault(t *testing.T) {
	db, err := core.Open(core.Config{Dir: t.TempDir(), Async: true, Degrade: exec.DegradeDrop})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	corpus := websim.Default()
	rng := search.NewRand(1)
	db.RegisterEngine(search.NewFlaky(websim.NewAltaVista(corpus), search.TransientOnly(1), rng), "AV")
	db.RegisterEngine(search.NewFlaky(websim.NewGoogle(corpus), search.TransientOnly(1), rng), "G")
	if err := harness.LoadPaperTables(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(New(db, Options{}))
	t.Cleanup(hs.Close)
	cl := NewClient(hs.URL)
	const sql = `SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = 'scuba diving'`

	res, err := cl.QueryOpts(context.Background(), QueryRequest{SQL: sql, TimeoutMS: 5000})
	if err != nil {
		t.Fatalf("a request naming no policy under the DB's drop: %v", err)
	}
	if res.DegradedCalls == 0 || res.RowCount != 0 {
		t.Errorf("a request naming no policy: %d rows, %d degraded calls; want 0 rows, every call dropped",
			res.RowCount, res.DegradedCalls)
	}
	if _, err := cl.QueryOpts(context.Background(), QueryRequest{SQL: sql, Degrade: "fail", TimeoutMS: 5000}); err == nil {
		t.Error("a request naming fail got an answer from engines that fail every call")
	}
}
