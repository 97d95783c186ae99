package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/search"
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
