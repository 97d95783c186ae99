package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sqlparse"
)

// tracePagesQuery is the Section 3.1 Q5 / Table-1 style dependent join:
// 50 states, one WebPages call each, two URLs per call — so every call
// patches its original tuple and expands one copy.
const tracePagesQuery = `SELECT Name, URL, Rank FROM States, WebPages WHERE Name = T1 AND Rank <= 2`

func traceQuery(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	res, err := db.QueryContextOpts(context.Background(), sql, QueryOptions{Trace: true})
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if res.Trace == nil {
		t.Fatalf("%s: no trace returned", sql)
	}
	return res
}

func findSpan(root *obs.Span, op string) *obs.Span {
	var found *obs.Span
	root.Walk(func(s *obs.Span) {
		if found == nil && s.Op == op {
			found = s
		}
	})
	return found
}

// TestTraceTreeMatchesPlanShape pins span parentage to plan parentage:
// the trace of an asynchronously rewritten dependent-join plan has
// exactly the rewritten plan's shape.
func TestTraceTreeMatchesPlanShape(t *testing.T) {
	db := newPaperDB(t, Config{Async: true})
	sel, err := sqlparse.ParseSelect(tracePagesQuery)
	if err != nil {
		t.Fatal(err)
	}
	op, err := db.Plan(sel)
	if err != nil {
		t.Fatal(err)
	}
	want := exec.Shape(op)
	if !strings.Contains(want, "ReqSync") {
		t.Fatalf("plan not rewritten for async iteration: %s", want)
	}
	res := traceQuery(t, db, tracePagesQuery)
	if got := res.Trace.Shape(); got != want {
		t.Errorf("span tree shape = %s, want plan shape %s", got, want)
	}
	if res.Trace.Rows != int64(len(res.Rows)) {
		t.Errorf("root span rows = %d, result rows = %d", res.Trace.Rows, len(res.Rows))
	}
}

// TestTraceTimesAreInclusive checks the timing invariants: a parent's
// inclusive time covers its children's, and the per-operator self times
// sum back to the root's total (within clamping jitter).
func TestTraceTimesAreInclusive(t *testing.T) {
	db := newPaperDB(t, Config{Async: true})
	res := traceQuery(t, db, tracePagesQuery)
	var selfSum time.Duration
	res.Trace.Walk(func(s *obs.Span) {
		selfSum += s.Self()
		var kids time.Duration
		for _, c := range s.Children {
			kids += c.Dur
		}
		// Children run inside the parent's Open/Next/Close, so inclusive
		// time can never be (meaningfully) smaller than their sum.
		if s.Dur+time.Millisecond < kids {
			t.Errorf("%s: inclusive %v < children %v", s.Op, s.Dur, kids)
		}
	})
	total := res.Trace.Dur
	if diff := total - selfSum; diff < -time.Millisecond || diff > time.Millisecond {
		t.Errorf("sum of self times %v != total %v", selfSum, total)
	}
}

// TestTraceExpansionCounts pins the ReqSync settlement profile to the
// known multiplicities of the corpus: 50 calls, each returning two rows,
// patch 50 originals and generate 50 copies (Section 4.3).
func TestTraceExpansionCounts(t *testing.T) {
	db := newPaperDB(t, Config{Async: true})
	res := traceQuery(t, db, tracePagesQuery)
	if len(res.Rows) != 100 {
		t.Fatalf("rows = %d, want 100", len(res.Rows))
	}
	rs := findSpan(res.Trace, "ReqSync")
	if rs == nil {
		t.Fatalf("no ReqSync span in:\n%s", res.Trace.Render())
	}
	for k, want := range map[string]int64{"settled": 50, "patched": 50, "expanded": 50} {
		if got := rs.Extra[k]; got != want {
			t.Errorf("ReqSync %s = %d, want %d\n%s", k, got, want, res.Trace.Render())
		}
	}
	if got := rs.Extra["canceled"]; got != 0 {
		t.Errorf("ReqSync canceled = %d, want 0", got)
	}
	if rs.Rows != 100 {
		t.Errorf("ReqSync rows = %d, want 100", rs.Rows)
	}
	aev := findSpan(res.Trace, "AEVScan")
	if aev == nil {
		t.Fatalf("no AEVScan span in:\n%s", res.Trace.Render())
	}
	if got := aev.Extra["calls"]; got != 50 {
		t.Errorf("AEVScan calls = %d, want 50", got)
	}
	if aev.Opens != 50 {
		t.Errorf("AEVScan opens = %d, want 50 (one per outer binding)", aev.Opens)
	}
}

// TestTraceSyncEVScan traces the synchronous plan: the EVScan reports
// its call count, and the span tree carries no ReqSync.
func TestTraceSyncEVScan(t *testing.T) {
	db := newPaperDB(t, Config{Async: false})
	res := traceQuery(t, db, tracePagesQuery)
	if s := res.Trace.Shape(); strings.Contains(s, "ReqSync") {
		t.Fatalf("sync plan should have no ReqSync: %s", s)
	}
	ev := findSpan(res.Trace, "EVScan")
	if ev == nil {
		t.Fatalf("no EVScan span in:\n%s", res.Trace.Render())
	}
	if got := ev.Extra["calls"]; got != 50 {
		t.Errorf("EVScan calls = %d, want 50", got)
	}
}

// TestExplainAnalyzeSQL exercises the textual `EXPLAIN ANALYZE <query>`
// form end to end: it must execute the query and return the rendered
// span tree as rows, through the ordinary query entry points.
func TestExplainAnalyzeSQL(t *testing.T) {
	db := newPaperDB(t, Config{Async: true})
	res, err := db.QueryContext(context.Background(), "explain analyze "+tracePagesQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "EXPLAIN ANALYZE" {
		t.Fatalf("columns = %v", res.Columns)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r[0].S
	}
	text := strings.Join(out, "\n")
	for _, want := range []string{"ReqSync", "AEVScan", "expanded=50", "total:", "rows=100"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, text)
		}
	}
	if res.Trace == nil {
		t.Error("EXPLAIN ANALYZE result should carry the span tree")
	}
	// From a warm cache the same query's calls are hits answered at
	// registration: the scan line says so, nothing is left to settle, and
	// the multi-row results are emitted in full.
	warm := newPaperDB(t, Config{Async: true, CacheSize: 256})
	mustQuery(t, warm, tracePagesQuery)
	res, err = warm.QueryContext(context.Background(), "EXPLAIN ANALYZE "+tracePagesQuery)
	if err != nil {
		t.Fatal(err)
	}
	text = ""
	for _, r := range res.Rows {
		text += r[0].S + "\n"
	}
	for _, want := range []string{"calls=50", "cache_hits=50", "rows=100"} {
		if !strings.Contains(text, want) {
			t.Errorf("warm EXPLAIN ANALYZE output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "settled=") {
		t.Errorf("warm EXPLAIN ANALYZE reports settlements:\n%s", text)
	}
	// Not a valid prefix: EXPLAIN without ANALYZE stays a parse error,
	// and a non-query statement is rejected.
	if _, err := db.QueryContext(context.Background(), "EXPLAIN ANALYZE"); err == nil {
		t.Error("bare EXPLAIN ANALYZE should fail")
	}
	if _, err := db.ExecContext(context.Background(), "EXPLAIN ANALYZE CREATE TABLE X (A INT)"); err == nil {
		t.Error("EXPLAIN ANALYZE of DDL should fail")
	}
	if _, err := db.QueryContext(context.Background(), "EXPLAIN ANALYZE EXPLAIN ANALYZE "+tracePagesQuery); err == nil {
		t.Error("nested EXPLAIN ANALYZE should fail")
	}
}

// TestExplainAnalyzeAPI exercises the programmatic form, QueryOptions
// Trace, which returns the real rows plus the trace.
func TestExplainAnalyzeAPI(t *testing.T) {
	db := newPaperDB(t, Config{Async: true})
	res, err := db.QueryContextOpts(context.Background(), tracePagesQuery, QueryOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 100 {
		t.Errorf("rows = %d, want 100", len(res.Rows))
	}
	if res.Trace == nil || findSpan(res.Trace, "ReqSync") == nil {
		t.Error("trace missing or incomplete")
	}
}
