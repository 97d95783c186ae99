package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/search"
	"repro/internal/sqlparse"
	"repro/internal/types"
	"repro/internal/websim"
)

// Plan reuse (DESIGN.md §5): core keeps a finished operator tree per
// statement text and re-opens it. The tests below hold the five rules the
// design states; TestReuse… are the ones `make check` repeats under -race.

// idleTrees returns the trees idle for sql.
func idleTrees(db *DB, sql string) []*tree {
	db.planMu.Lock()
	defer db.planMu.Unlock()
	return append([]*tree(nil), db.idle[sql]...)
}

// idleShape is the shape of the one tree idle for sql.
func idleShape(t *testing.T, db *DB, sql string) string {
	t.Helper()
	trees := idleTrees(db, sql)
	if len(trees) != 1 {
		t.Fatalf("%d trees idle for %q, want 1", len(trees), sql)
	}
	return exec.Shape(trees[0].op)
}

func rowsString(rows []types.Tuple) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestReuseLeavesEarlierResultsAlone is rule 5. One tree answers every run
// of a text; over an engine that fails a seeded share of its calls, under
// degrade=drop, each run returns different rows out of the same operators,
// windows and scratch. Every Result still equals the deep copy taken when
// it was returned.
func TestReuseLeavesEarlierResultsAlone(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir(), Async: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	corpus := websim.Default()
	faults := search.FaultModel{Count: search.FaultProfile{Hard: 0.3}, Search: search.FaultProfile{Hard: 0.3}}
	db.RegisterEngine(search.NewFlaky(search.NewDelayed(websim.NewAltaVista(corpus), search.ZeroLatency(), 1), faults, search.NewRand(7)), "AV")
	loadTables(t, db)
	drop := exec.DegradeDrop
	for _, sql := range []string{
		`SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = 'scuba diving'`,
		`SELECT Name, URL, Rank FROM States, WebPages WHERE Name = T1 AND Rank <= 3 ORDER BY Name`,
		`SELECT S.Name, Count FROM States S, States T, WebCount WHERE S.Capital = T.Capital AND T.Population > 5000000 AND S.Name = T1`,
	} {
		type kept struct {
			res  *Result
			copy []types.Tuple
		}
		var runs []kept
		var first *tree
		distinct := map[string]bool{}
		for i := 0; i < 12; i++ {
			res, err := db.QueryContextOpts(context.Background(), sql, QueryOptions{Degrade: &drop})
			if err != nil {
				t.Fatalf("run %d of %s: %v", i, sql, err)
			}
			cp := make([]types.Tuple, len(res.Rows))
			for j, r := range res.Rows {
				cp[j] = r.Clone()
			}
			runs = append(runs, kept{res, cp})
			distinct[rowsString(cp)] = true
			trees := idleTrees(db, sql)
			if len(trees) != 1 || first != nil && trees[0] != first {
				t.Fatalf("run %d of %s: idle trees %v, want the first run's %p", i, sql, trees, first)
			}
			first = trees[0]
		}
		if len(distinct) < 3 {
			t.Errorf("%s: only %d different answers in 12 runs; the fixture no longer makes runs differ", sql, len(distinct))
		}
		for i, k := range runs {
			if got, want := rowsString(k.res.Rows), rowsString(k.copy); got != want {
				t.Errorf("%s: the Result of run %d changed after it was returned:\nnow\n%swas\n%s", sql, i, got, want)
			}
		}
	}
}

// TestReuseIsExclusiveUnderConcurrency is rule 1. Eight goroutines send the
// same four texts; a tree belongs to one of them from take to put, so every
// answer equals the one the text's first, freshly planned tree gave, the
// race detector stays quiet, and afterwards the pump holds nothing, no
// goroutine is left behind and no text keeps more idle trees than its bound.
func TestReuseIsExclusiveUnderConcurrency(t *testing.T) {
	db, _ := newFlakyDB(t, 0) // an engine that computes nothing: the test is about the trees
	texts := []string{
		`SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = 'scuba diving' ORDER BY Count DESC, Name LIMIT 3`,
		`SELECT Name, URL FROM States, WebPages WHERE Name = T1 AND T2 = 'computer' AND Rank <= 2`,
		`SELECT S.Name, T.Name FROM States S, States T WHERE S.Capital = T.Capital AND T.Population > 10000000 AND S.Name <> 'Texas'`,
		`SELECT Name FROM Sigs UNION SELECT Name FROM States WHERE Population > 15000000`,
	}
	want := make([]string, len(texts))
	for i, q := range texts {
		want[i] = sortedRows(mustQuery(t, db, q).Rows)
	}
	db.Pump().Quiesce()
	baseline := runtime.NumGoroutine()

	const clients, rounds = 8, 20
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range texts {
					k := (c + i) % len(texts)
					res, err := db.QueryContext(context.Background(), texts[k])
					if err != nil {
						t.Errorf("client %d: %s: %v", c, texts[k], err)
						return
					}
					if got := sortedRows(res.Rows); got != want[k] {
						t.Errorf("client %d: %s:\ngot\n%swant\n%s", c, texts[k], got, want[k])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()

	for _, q := range texts {
		if n := len(idleTrees(db, q)); n < 1 || n > maxIdleTrees {
			t.Errorf("%d trees idle for %q, want 1..%d", n, q, maxIdleTrees)
		}
	}
	db.Pump().Quiesce()
	if held := db.Pump().Held(); held != 0 {
		t.Errorf("pump holds %d call records after every query returned", held)
	}
	leakcheck.Settle(t, baseline)
}

// TestReuseRecycledSlabsMatchTheData: a producer whose consumer keeps
// none of its tuples refills one slab per batch and keeps it for the next
// execution of its tree (exec's recycler), which is safe only because a
// tree runs one execution at a time. Four goroutines send local_join's
// query and two more shapes over the same tables — a projection of a hash
// join under a sort, a count over a filtered scan — and every answer,
// the first, freshly planned tree's included, must be the one the
// inserted rows give, as must each client's first answers once every
// client is done. Cust has more rows than a batch holds, so the hash
// join's build side takes two.
func TestReuseRecycledSlabsMatchTheData(t *testing.T) {
	db := newPaperDB(t, Config{Async: true})
	cust, orders := loadOrders(t, db, 300, 1000, 1)
	texts := []string{
		localJoinSQL,
		`SELECT Region, Amount FROM Orders O, Cust C WHERE O.Cust = C.Id AND Amount > 100 ORDER BY Amount DESC, Region`,
		`SELECT COUNT(*), SUM(Cust) FROM Orders WHERE Amount < 20`,
	}
	type group struct{ n, sum int64 }
	groups := map[string]*group{}
	var joined, small []types.Tuple
	var smallSum int64
	for _, o := range orders {
		region, amount := cust[o[1].I][1], o[2].I
		if amount > 100 {
			joined = append(joined, types.Tuple{region, o[2]})
			if groups[region.S] == nil {
				groups[region.S] = &group{}
			}
			groups[region.S].n++
			groups[region.S].sum += amount
		}
		if amount < 20 {
			small = append(small, o)
			smallSum += o[1].I
		}
	}
	var grouped []types.Tuple
	for region, g := range groups {
		grouped = append(grouped, types.Tuple{types.Str(region), types.Int(g.n), types.Int(g.sum)})
	}
	want := []string{
		sortedRows(grouped),
		sortedRows(joined),
		sortedRows([]types.Tuple{{types.Int(int64(len(small))), types.Int(smallSum)}}),
	}
	for i, q := range texts {
		if got := sortedRows(mustQuery(t, db, q).Rows); got != want[i] {
			t.Fatalf("%s on a fresh tree:\ngot\n%swant\n%s", q, got, want[i])
		}
	}
	const clients, rounds = 4, 5
	first := make([][]*Result, clients) // each client's answers of its first round
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range texts {
					k := (c + i) % len(texts)
					res, err := db.QueryContext(context.Background(), texts[k])
					if err != nil {
						t.Errorf("client %d: %s: %v", c, texts[k], err)
						return
					}
					if got := sortedRows(res.Rows); got != want[k] {
						t.Errorf("client %d: %s:\ngot\n%swant\n%s", c, texts[k], got, want[k])
						return
					}
					if r == 0 {
						first[c] = append(first[c], res)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for c, answers := range first {
		for i, res := range answers {
			k := (c + i) % len(texts)
			if got := sortedRows(res.Rows); got != want[k] {
				t.Errorf("client %d: its first answer to %s changed:\ngot\n%swant\n%s", c, texts[k], got, want[k])
			}
		}
	}
}

// TestReuseDropsTheTreeOfAFailedRun is rule 2. A run that ends in an error
// — the deadline expiring while the ReqSync waits, an engine failing under
// degrade=fail — may leave operators mid-stream and calls in flight: its
// tree does not go back, and the next run of the text, on a tree planned
// for it, is correct and leaves that one idle.
func TestReuseDropsTheTreeOfAFailedRun(t *testing.T) {
	const sql = `SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = 'surfing'`
	t.Run("deadline mid-settle", func(t *testing.T) {
		db, err := Open(Config{Dir: t.TempDir(), Async: true})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		slow := search.LatencyModel{Base: 30 * time.Millisecond, CountFactor: 1}
		db.RegisterEngine(search.NewDelayed(websim.NewAltaVista(websim.Default()), slow, 1), "AV")
		loadTables(t, db)
		want := sortedRows(mustQuery(t, db, sql).Rows)
		if n := len(idleTrees(db, sql)); n != 1 {
			t.Fatalf("%d trees idle after a clean run, want 1", n)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		if _, err := db.QueryContext(ctx, sql); err == nil {
			t.Fatal("a 5 ms deadline over 30 ms calls must fail the query")
		}
		if trees := idleTrees(db, sql); len(trees) != 0 {
			t.Fatalf("the failed run's tree went back: %d idle", len(trees))
		}
		if got := sortedRows(mustQuery(t, db, sql).Rows); got != want {
			t.Errorf("run after the failed one:\ngot\n%swant\n%s", got, want)
		}
		if n := len(idleTrees(db, sql)); n != 1 {
			t.Errorf("%d trees idle after the next clean run, want 1", n)
		}
		db.Pump().Quiesce()
		if held := db.Pump().Held(); held != 0 {
			t.Errorf("pump holds %d call records", held)
		}
	})
	t.Run("engine failure under fail", func(t *testing.T) {
		db, fe := newFlakyDB(t, 0)
		want := sortedRows(mustQuery(t, db, sql).Rows)
		fe.failEvery.Store(10)
		if _, err := db.QueryContext(context.Background(), sql); err == nil {
			t.Fatal("every tenth call failing must fail the query")
		}
		if trees := idleTrees(db, sql); len(trees) != 0 {
			t.Fatalf("the failed run's tree went back: %d idle", len(trees))
		}
		fe.failEvery.Store(0)
		if got := sortedRows(mustQuery(t, db, sql).Rows); got != want {
			t.Errorf("run after the failed one:\ngot\n%swant\n%s", got, want)
		}
		if n := len(idleTrees(db, sql)); n != 1 {
			t.Errorf("%d trees idle after the next clean run, want 1", n)
		}
	})
}

// sortedRows is rowsString with the rows in sorted order: asynchronous
// iteration emits them in completion order.
func sortedRows(rows []types.Tuple) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = r.String() + "\n"
	}
	sort.Strings(lines)
	return strings.Join(lines, "")
}

// countEngine answers every Count with a fixed number.
type countEngine int64

func (countEngine) Name() string                                { return "altavista" }
func (e countEngine) Count(string) (int64, error)               { return int64(e), nil }
func (countEngine) Search(string, int) ([]search.Result, error) { return nil, nil }
func (countEngine) Fetch(string) (string, error)                { return "", search.ErrNotFound }

// TestReuseNeverRunsAStaleTree is rule 3, one case per thing a tree closes
// over: the stored tables by name (through SQL and through db.Catalog()),
// their row counts (the planner picks the join algorithm from them), the
// asynchronous rewrite, and the engine a virtual table resolved to. Each
// case runs a text, changes the world, and runs the text again: the answer
// and the executed shape are those of a fresh plan. Each fails if the bump
// of version() it relies on is removed.
func TestReuseNeverRunsAStaleTree(t *testing.T) {
	intCols := func(names ...string) []catalog.ColumnDef {
		cols := make([]catalog.ColumnDef, len(names))
		for i, n := range names {
			cols[i] = catalog.ColumnDef{Name: n, Type: schema.TInt}
		}
		return cols
	}
	insert := func(t *testing.T, db *DB, table string, vals ...int64) {
		t.Helper()
		tab, ok := db.Catalog().Get(table)
		if !ok {
			t.Fatalf("no table %s", table)
		}
		row := make(types.Tuple, len(vals))
		for i, v := range vals {
			row[i] = types.Int(v)
		}
		if _, err := tab.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	// gone: with T dropped the text names no table — not the rows of the
	// old one, nor an error out of its closed file. The re-created T is
	// empty until the first insert (which bumps the version on its own).
	gone := func(t *testing.T, db *DB) {
		t.Helper()
		if _, err := db.QueryContext(context.Background(), `SELECT A FROM T`); err == nil || !strings.Contains(err.Error(), "unknown table T") {
			t.Fatalf("query over the dropped T: %v, want the planner's unknown table", err)
		}
	}
	empty := func(t *testing.T, db *DB) {
		t.Helper()
		if res := mustQuery(t, db, `SELECT A FROM T`); len(res.Rows) != 0 {
			t.Fatalf("query over the re-created, empty T: %v", res.Rows)
		}
	}
	const join = `SELECT T.A, U.B FROM T, U WHERE T.A = U.A`
	const web = `SELECT A, Count FROM T, WebCount WHERE A = T1`
	for _, tc := range []struct {
		name, sql string
		change    func(t *testing.T, db *DB)
		before    string // rows before the change
		after     string // rows after it
		shape     string // what the tree idle after the second run must contain
	}{
		{name: "DROP and CREATE through SQL", sql: `SELECT A FROM T`,
			change: func(t *testing.T, db *DB) {
				mustExec(t, db, `DROP TABLE T`)
				gone(t, db)
				mustExec(t, db, `CREATE TABLE T (B INT, A VARCHAR)`)
				empty(t, db)
				mustExec(t, db, `INSERT INTO T VALUES (7, 'seven')`)
			},
			before: "<1>\n<2>\n", after: "<seven>\n", shape: "Scan"},
		{name: "Drop and Create through the catalog", sql: `SELECT A FROM T`,
			change: func(t *testing.T, db *DB) {
				if err := db.Catalog().Drop("T"); err != nil {
					t.Fatal(err)
				}
				gone(t, db)
				if _, err := db.Catalog().Create("T", intCols("B", "A")); err != nil {
					t.Fatal(err)
				}
				empty(t, db)
				insert(t, db, "T", 7, 8)
			},
			before: "<1>\n<2>\n", after: "<8>\n", shape: "Scan"},
		// U holds one row when the text is first planned: a nested loop. With
		// two, a fresh plan builds a hash table.
		{name: "INSERT through SQL", sql: join,
			change: func(t *testing.T, db *DB) { mustExec(t, db, `INSERT INTO U VALUES (2, 20)`) },
			before: "<1, 10>\n", after: "<1, 10>\n<2, 20>\n", shape: "Hash Join"},
		{name: "Insert through the catalog", sql: join,
			change: func(t *testing.T, db *DB) { insert(t, db, "U", 2, 20) },
			before: "<1, 10>\n", after: "<1, 10>\n<2, 20>\n", shape: "Hash Join"},
		{name: "SetAsync off", sql: web,
			change: func(t *testing.T, db *DB) { db.SetAsync(false) },
			before: "<1, 5>\n<2, 5>\n", after: "<1, 5>\n<2, 5>\n", shape: "EVScan"},
		{name: "RegisterEngine under the same name", sql: web,
			change: func(t *testing.T, db *DB) { db.RegisterEngine(countEngine(9), "AV") },
			before: "<1, 5>\n<2, 5>\n", after: "<1, 9>\n<2, 9>\n", shape: "AEVScan"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(Config{Dir: t.TempDir(), Async: true})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			db.RegisterEngine(countEngine(5), "AV")
			mustExec(t, db, `CREATE TABLE T (A INT)`)
			mustExec(t, db, `INSERT INTO T VALUES (1), (2)`)
			mustExec(t, db, `CREATE TABLE U (A INT, B INT)`)
			mustExec(t, db, `INSERT INTO U VALUES (1, 10)`)
			for i := 0; i < 2; i++ { // the second run is the reused tree's
				if got := sortedRows(mustQuery(t, db, tc.sql).Rows); got != tc.before {
					t.Fatalf("run %d before the change:\n%s\nwant\n%s", i, got, tc.before)
				}
			}
			stale := idleShape(t, db, tc.sql)
			if tc.sql == web && !strings.Contains(stale, "ReqSync(") || tc.sql == join && !strings.Contains(stale, "Join(") {
				t.Fatalf("shape before the change: %s", stale)
			}
			tc.change(t, db)
			for i := 0; i < 2; i++ {
				if got := sortedRows(mustQuery(t, db, tc.sql).Rows); got != tc.after {
					t.Fatalf("run %d after the change:\n%s\nwant\n%s", i, got, tc.after)
				}
			}
			if got := idleShape(t, db, tc.sql); !strings.Contains(got, tc.shape) || tc.name == "SetAsync off" && strings.Contains(got, "ReqSync") {
				t.Errorf("shape after the change: %s, want one with %s (before: %s)", got, tc.shape, stale)
			}
		})
	}
}

// TestReuseTracedAndUntracedShareATree is rule 4: tracing is per execution.
// One text runs with QueryOptions.Trace, under a sampled context, as
// EXPLAIN ANALYZE and untraced, round after round, and every run takes and
// puts back the one tree the first — a traced one — left idle, whose shape
// never changes and in which no decorator stays. Each traced run's span
// tree has the plan's shape and counts that run's 50 calls and
// settlements, not the tree's lifetime's; a returned trace is never written
// again (rule 5); and the entry points that only plan neither take a tree
// nor leave one.
func TestReuseTracedAndUntracedShareATree(t *testing.T) {
	db := newPaperDB(t, Config{Async: true})
	const sql = `SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = 'scuba diving'`
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	planOnly := func() {
		t.Helper()
		if _, err := db.Explain(sql); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Estimate(sql, plan.DefaultCostModel()); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Plan(sel); err != nil {
			t.Fatal(err)
		}
	}
	planOnly()
	db.planMu.Lock()
	texts := len(db.idle)
	db.planMu.Unlock()
	if texts != 0 {
		t.Fatalf("planning-only calls left %d texts idle", texts)
	}
	op, err := db.Plan(sel)
	if err != nil {
		t.Fatal(err)
	}
	shape := exec.Shape(op)

	var kept *tree
	check := func(step string) {
		t.Helper()
		trees := idleTrees(db, sql)
		if len(trees) != 1 || kept != nil && trees[0] != kept {
			t.Fatalf("after %s: idle trees %v, want the first run's %p alone", step, trees, kept)
		}
		kept = trees[0]
		if got := exec.Shape(kept.op); got != shape {
			t.Fatalf("after %s: idle tree shape %s, want %s", step, got, shape)
		}
		if d := decorator(kept.op); d != "" {
			t.Fatalf("after %s: a %s stayed in the idle tree", step, d)
		}
	}
	sampled := obs.WithTrace(context.Background(), obs.NewTraceCtx())
	traced := []struct {
		name  string
		calls int // pump call spans the scan hands out
		run   func() (*Result, error)
	}{
		{"Trace", 0, func() (*Result, error) {
			return db.QueryContextOpts(context.Background(), sql, QueryOptions{Trace: true})
		}},
		{"a sampled context", 50, func() (*Result, error) { return db.QueryContext(sampled, sql) }},
		{"EXPLAIN ANALYZE", 0, func() (*Result, error) {
			return db.QueryContext(context.Background(), "EXPLAIN ANALYZE "+sql)
		}},
	}
	type returned struct {
		trace  *obs.Span
		render string
	}
	var traces []returned
	for round := 0; round < 3; round++ {
		for _, tr := range traced {
			res, err := tr.run()
			if err != nil || res.Trace == nil {
				t.Fatalf("round %d, %s: %v, no trace", round, tr.name, err)
			}
			if got := res.Trace.Shape(); got != shape {
				t.Errorf("round %d, %s: span tree %s, want the plan's %s", round, tr.name, got, shape)
			}
			aev, rs := findSpan(res.Trace, "AEVScan"), findSpan(res.Trace, "ReqSync")
			if aev == nil || rs == nil {
				t.Fatalf("round %d, %s: no AEVScan or ReqSync span in\n%s", round, tr.name, res.Trace.Render())
			}
			if aev.Extra["calls"] != 50 || rs.Extra["settled"] != 50 || len(aev.AsyncChildren) != tr.calls {
				t.Errorf("round %d, %s: AEVScan calls=%d with %d call spans, ReqSync settled=%d; want 50, %d, 50: this run's counts",
					round, tr.name, aev.Extra["calls"], len(aev.AsyncChildren), rs.Extra["settled"], tr.calls)
			}
			traces = append(traces, returned{res.Trace, res.Trace.Render()})
			check(tr.name)
		}
		if res := mustQuery(t, db, sql); res.Trace != nil || len(res.Rows) != 50 {
			t.Fatalf("round %d, untraced: trace %v, %d rows", round, res.Trace, len(res.Rows))
		}
		check("an untraced run")
		planOnly()
		check("planning-only calls")
	}
	for i, r := range traces {
		if got := r.trace.Render(); got != r.render {
			t.Errorf("trace %d changed after it was returned:\nnow\n%swas\n%s", i, got, r.render)
		}
	}
}

// decorator names the first trace decorator left in op's tree, "" if none.
func decorator(op exec.Operator) string {
	if ty := fmt.Sprintf("%T", op); strings.Contains(strings.ToLower(ty), "spanop") {
		return ty + " over " + op.Name()
	}
	for _, c := range op.Children() {
		if d := decorator(c); d != "" {
			return d
		}
	}
	return ""
}

// TestIdleTreesAreBounded: a text keeps at most maxIdleTrees trees, and the
// map at most maxTreeTexts texts — one more drops it whole.
func TestIdleTreesAreBounded(t *testing.T) {
	db := newPaperDB(t, Config{})
	v := db.version()
	for i := 0; i < maxIdleTrees+3; i++ {
		db.putTree("q", v, &tree{})
	}
	if n := len(idleTrees(db, "q")); n != maxIdleTrees {
		t.Errorf("%d trees idle for one text, want %d", n, maxIdleTrees)
	}
	for i := 0; i < 3*maxTreeTexts; i++ {
		mustQuery(t, db, fmt.Sprintf(`SELECT Name FROM States WHERE Population > %d`, i))
		db.planMu.Lock()
		n := len(db.idle)
		db.planMu.Unlock()
		if n > maxTreeTexts {
			t.Fatalf("%d texts idle after %d statements, want <= %d", n, i+1, maxTreeTexts)
		}
	}
	// A tree planned before a bump is not taken after it, nor kept when its
	// run ends after it.
	db.putTree("old", v, &tree{})
	db.SetAsync(true)
	if db.takeTree("old", db.version()) != nil {
		t.Errorf("took a tree of version %d at version %d", v, db.version())
	}
	db.putTree("old", v, &tree{})
	if n := len(idleTrees(db, "old")); n != 0 {
		t.Errorf("%d trees of version %d idle at version %d", n, v, db.version())
	}
}
