package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/exec"
	"repro/internal/search"
	"repro/internal/websim"
)

// flakyEngine fails a configurable subset of calls.
type flakyEngine struct {
	inner search.Engine
	// failEvery is atomic: a test heals the engine while calls abandoned by
	// its failed query are still running.
	failEvery atomic.Int64
	calls     atomic.Int64
}

func (f *flakyEngine) Name() string { return f.inner.Name() }

func (f *flakyEngine) maybeFail() error {
	n := f.calls.Add(1)
	if every := f.failEvery.Load(); every > 0 && n%every == 0 {
		return fmt.Errorf("transient engine failure (call %d)", n)
	}
	return nil
}

func (f *flakyEngine) Count(q string) (int64, error) {
	if err := f.maybeFail(); err != nil {
		return 0, err
	}
	return f.inner.Count(q)
}

func (f *flakyEngine) Search(q string, k int) ([]search.Result, error) {
	if err := f.maybeFail(); err != nil {
		return nil, err
	}
	return f.inner.Search(q, k)
}

func (f *flakyEngine) Fetch(url string) (string, error) {
	if err := f.maybeFail(); err != nil {
		return "", err
	}
	return f.inner.Fetch(url)
}

type stubOK struct{}

func (stubOK) Name() string                  { return "altavista" }
func (stubOK) Count(q string) (int64, error) { return int64(len(q)), nil }
func (stubOK) Search(q string, k int) ([]search.Result, error) {
	return []search.Result{{URL: "u/" + q, Rank: 1, Date: "1999-01-01"}}, nil
}
func (stubOK) Fetch(url string) (string, error) { return "<html></html>", nil }

func newFlakyDB(t *testing.T, failEvery int64) (*DB, *flakyEngine) {
	t.Helper()
	db, err := Open(Config{Dir: t.TempDir(), Async: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	fe := &flakyEngine{inner: stubOK{}}
	fe.failEvery.Store(failEvery)
	db.RegisterEngine(fe, "AV")
	loadTables(t, db)
	return db, fe
}

func TestAsyncQueryFailsCleanlyOnEngineError(t *testing.T) {
	db, _ := newFlakyDB(t, 10) // every 10th call fails
	_, err := db.QueryContext(context.Background(), `SELECT Name, Count FROM States, WebCount WHERE Name = T1`)
	if err == nil {
		t.Fatal("engine failure must surface as a query error")
	}
	if !strings.Contains(err.Error(), "transient engine failure") {
		t.Errorf("error should carry the cause: %v", err)
	}
}

func TestPumpSurvivesFailedQuery(t *testing.T) {
	// After a failed query, abandoned in-flight calls must not wedge the
	// pump; the next query over a healthy path succeeds.
	db, fe := newFlakyDB(t, 25)
	if _, err := db.QueryContext(context.Background(), `SELECT Name, Count FROM States, WebCount WHERE Name = T1`); err == nil {
		t.Fatal("expected failure")
	}
	fe.failEvery.Store(0) // heal the engine
	res, err := db.QueryContext(context.Background(), `SELECT Name, Count FROM States, WebCount WHERE Name = T1`)
	if err != nil {
		t.Fatalf("query after failure: %v", err)
	}
	if len(res.Rows) != 50 {
		t.Errorf("rows: %d", len(res.Rows))
	}
}

func TestSyncQueryFailsCleanlyToo(t *testing.T) {
	db, _ := newFlakyDB(t, 5)
	db.SetAsync(false)
	if _, err := db.QueryContext(context.Background(), `SELECT Name, Count FROM States, WebCount WHERE Name = T1`); err == nil {
		t.Fatal("sync engine failure must surface")
	}
}

func TestAggregateOverVirtualTable(t *testing.T) {
	// Aggregation above a WebPages dependent join exercises the full
	// clash path through SQL: the Aggregate must stay above the ReqSync
	// and count final (patched, expanded, canceled) tuples.
	db := newPaperDB(t, Config{Async: true})
	res := mustQuery(t, db, `SELECT COUNT(*) FROM States, WebPages WHERE Name = T1 AND Rank <= 2`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %v", res.Rows)
	}
	n, _ := res.Rows[0][0].AsInt()
	if n != 100 { // 50 states x top-2
		t.Errorf("COUNT(*) = %d, want 100", n)
	}
	// Grouped aggregate over counts.
	res = mustQuery(t, db, `SELECT Name, COUNT(*) AS n FROM Sigs, WebPages
		WHERE Name = T1 AND Rank <= 3 GROUP BY Name ORDER BY Name LIMIT 3`)
	if len(res.Rows) != 3 {
		t.Fatalf("groups: %v", res.Rows)
	}
	for _, r := range res.Rows {
		if c, _ := r[1].AsInt(); c != 3 {
			t.Errorf("per-sig URL count: %v", r)
		}
	}
}

func TestDistinctOverVirtualTable(t *testing.T) {
	db := newPaperDB(t, Config{Async: true})
	res := mustQuery(t, db, `SELECT DISTINCT Rank FROM States, WebPages WHERE Name = T1 AND Rank <= 3`)
	if len(res.Rows) != 3 {
		t.Errorf("distinct ranks: %v", res.Rows)
	}
}

func TestWebFetchThroughSQL(t *testing.T) {
	db := newPaperDB(t, Config{Async: true})
	res := mustQuery(t, db, `SELECT WebPages.URL, Status FROM States, WebPages, WebFetch
		WHERE Name = T1 AND Rank <= 1 AND WebPages.URL = WebFetch.URL`)
	if len(res.Rows) != 50 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if st, _ := r[len(r)-1].AsInt(); st != 200 {
			t.Errorf("status: %v", r)
		}
	}
}

func TestLimitShortCircuitsCleanly(t *testing.T) {
	// A LIMIT above a ReqSync closes the plan mid-iteration; pending calls
	// are discarded without wedging later queries.
	db := newPaperDB(t, Config{Async: true})
	res := mustQuery(t, db, `SELECT Name, Count FROM States, WebCount WHERE Name = T1 LIMIT 3`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	// Engine still healthy for the next query.
	res = mustQuery(t, db, `SELECT Name, Count FROM States, WebCount WHERE Name = T1`)
	if len(res.Rows) != 50 {
		t.Fatalf("follow-up rows: %d", len(res.Rows))
	}
}

// TestDegradeSyncMatchesAsync: a failed call is degraded by one policy
// whichever iteration made it. Template 1 runs under each degrade policy,
// synchronously and asynchronously, over an engine that fails a seeded
// 30 % of its calls outright. With one call in flight at a time both
// modes issue the calls in the States scan's order and so draw the same
// faults: they must return the same rows and absorb the same number of
// failed calls, and under fail both must error, each with its own
// operator's message.
func TestDegradeSyncMatchesAsync(t *testing.T) {
	const sql = `SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = 'scuba diving'`
	run := func(asyncMode bool, pol exec.DegradePolicy) (*Result, error) {
		db, err := Open(Config{Dir: t.TempDir(), Async: asyncMode, MaxConcurrentCalls: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		faults := search.FaultModel{Count: search.FaultProfile{Hard: 0.3}}
		engine := search.NewDelayed(websim.NewAltaVista(websim.Default()), search.ZeroLatency(), 1)
		db.RegisterEngine(search.NewFlaky(engine, faults, search.NewRand(11)), "AV")
		loadTables(t, db)
		return db.QueryContextOpts(context.Background(), sql, QueryOptions{Degrade: &pol})
	}
	for _, pol := range []exec.DegradePolicy{exec.DegradeFail, exec.DegradeDrop, exec.DegradePartial} {
		t.Run(pol.String(), func(t *testing.T) {
			syncRes, syncErr := run(false, pol)
			asyncRes, asyncErr := run(true, pol)
			if pol == exec.DegradeFail {
				var fe *search.FaultError
				if !errors.As(syncErr, &fe) || !strings.HasPrefix(syncErr.Error(), "WebCount: ") {
					t.Errorf("sync: %v, want the scan's \"WebCount: \" fault error", syncErr)
				}
				if !errors.As(asyncErr, &fe) || !strings.HasPrefix(asyncErr.Error(), "external call failed: ") {
					t.Errorf("async: %v, want ReqSync's \"external call failed: \" fault error", asyncErr)
				}
				return
			}
			if syncErr != nil || asyncErr != nil {
				t.Fatalf("sync: %v, async: %v; want both absorbed", syncErr, asyncErr)
			}
			if got, want := sortedRows(asyncRes.Rows), sortedRows(syncRes.Rows); got != want {
				t.Errorf("async rows\n%s\nsync rows\n%s", got, want)
			}
			n := syncRes.Stats.DegradedCalls
			if n == 0 || n != asyncRes.Stats.DegradedCalls {
				t.Errorf("degraded calls: sync %d, async %d; want the same nonzero count", n, asyncRes.Stats.DegradedCalls)
			}
			if want := 50 - n; pol == exec.DegradeDrop && int64(len(syncRes.Rows)) != want {
				t.Errorf("drop: %d rows, want one per call that did not fail (%d)", len(syncRes.Rows), want)
			}
			if pol == exec.DegradePartial && len(syncRes.Rows) != 50 {
				t.Errorf("partial: %d rows, want all 50 states", len(syncRes.Rows))
			}
		})
	}
}
