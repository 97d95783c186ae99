package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/search"
	"repro/internal/types"
)

// TestAllocationBudget pins the executor's allocation diet from outside,
// on the three query shapes the ledger's local_join, hot_cache and
// pump_bound workloads time, and on hot_cache traced: heap objects per
// query are a count that repeats exactly, so a regression shows here
// before it shows as throughput. The race detector allocates on its own
// account, so the budgets hold only without it.
func TestAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race detector's own")
	}

	// local_join's shape at a tenth of its size: scan, filter, hash join,
	// group, sort over stored tables. Per-row work (decoding a record,
	// evaluating and hashing a key, joining, grouping) must allocate per
	// batch, per page or per group, not per row: 5.2 objects per input row
	// before the slabs and the key table, 0.19 after, 0.13 while every
	// Cust row's Region was a string of its own, 0.04 once a page's
	// strings were cut out of one, 0.034 once the scans, joins and
	// projections refilled a slab per batch for a consumer that keeps
	// nothing, and 0.009 (30 per query, 69 before) since every operator
	// keeps its storage from one execution to the next. Bytes are what the
	// narrowing cuts and the recycling save: a row Amount > 100 rejects is
	// taken back off the scan's slab, a joined row holds Amount and Region
	// only, the batch windows are reused, and since the Aggregate keeps
	// none of the join's rows nor the join any of the Orders scan's, both
	// refill one slab — 272 bytes per input row
	// before the cuts, 118 after, 39.6 while the hash join built its table
	// anew at every execution, 20.7 while the Aggregate, the Sort and the
	// join's windows still did, 14.7 now, most of it the Cust rows the join
	// keeps.
	t.Run("local_join", func(t *testing.T) {
		const custRows, ordersRows = 300, 3000
		db := newPaperDB(t, Config{})
		mustExec(t, db, `CREATE TABLE Cust (Id INT, Region VARCHAR)`)
		mustExec(t, db, `CREATE TABLE Orders (Id INT, Cust INT, Amount INT)`)
		cust, _ := db.Catalog().Get("Cust")
		regions := []string{"north", "south", "east", "west"}
		for i := 0; i < custRows; i++ {
			if _, err := cust.Insert(types.Tuple{types.Int(int64(i)), types.Str(regions[i%len(regions)])}); err != nil {
				t.Fatal(err)
			}
		}
		orders, _ := db.Catalog().Get("Orders")
		for i := 0; i < ordersRows; i++ {
			row := types.Tuple{types.Int(int64(i)), types.Int(int64(i * 7 % custRows)), types.Int(int64(i * 13 % 200))}
			if _, err := orders.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
		const q = `SELECT Region, COUNT(*), SUM(Amount) FROM Orders O, Cust C
			WHERE O.Cust = C.Id AND Amount > 100 GROUP BY Region ORDER BY Region`
		if res := mustQuery(t, db, q); len(res.Rows) != len(regions) {
			t.Fatalf("rows: %v", res.Rows)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		perRow := testing.AllocsPerRun(runs, func() { mustQuery(t, db, q) }) / (custRows + ordersRows)
		runtime.ReadMemStats(&after)
		if perRow > 0.014 {
			t.Errorf("local join: %.4f heap objects per input row, want <= 0.014 (0.009 measured)", perRow)
		}
		// AllocsPerRun runs the query once more than it averages over.
		bytesPerRow := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / (custRows + ordersRows)
		if bytesPerRow > 16 {
			t.Errorf("local join: %.1f bytes allocated per input row, want <= 16 (14.7 measured; 20.7 before the operators kept their storage, 118 before the recycling)", bytesPerRow)
		}
	})

	// hot_cache's shape: Template 1 served from a warm result cache, so
	// 50 registrations and no engine call. The virtual table's inputs are
	// bound once per scan, the outer tuple is bound by reference, from its
	// second execution on a text is not parsed, planned or rewritten again,
	// and its ReqSync and DependentJoin reuse their buffers. What is left is
	// per round, not per key or per cell: a round's keys are probed as
	// bytes and its scratch is the scan's, the scanned Names are cut out of
	// one string per page, and only Name, T1 and Count of the 13 columns
	// are decoded or carried (15 objects and 13.9 KB measured; 118 and
	// 21.5 KB with a string per key and per cell, 2 122 objects before the
	// slabs).
	const q = `SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = 'scuba diving'`
	t.Run("hot_cache", func(t *testing.T) {
		db := newPaperDB(t, Config{Async: true, CacheSize: 4096})
		if res := mustQuery(t, db, q); len(res.Rows) != 50 {
			t.Fatalf("rows: %d", len(res.Rows))
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() { mustQuery(t, db, q) })
		runtime.ReadMemStats(&after)
		if allocs > 30 {
			t.Errorf("warm Template 1: %.0f heap objects per query, want <= 30", allocs)
		}
		if kb := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / 1024; kb > 16 {
			t.Errorf("warm Template 1: %.1f KB allocated per query, want <= 16", kb)
		}
	})

	// The same warm query traced re-opens the same idle tree, instrumented
	// for the one execution: what it adds is a span and a decorator per
	// operator, the extras, and no parse, plan or rewrite (342 objects while
	// a traced query planned afresh, 161 with a string per key and per
	// cell, 58 now).
	t.Run("traced_warm", func(t *testing.T) {
		db := newPaperDB(t, Config{Async: true, CacheSize: 4096})
		mustQuery(t, db, q)
		traced := func() {
			if _, err := db.QueryContextOpts(context.Background(), q, QueryOptions{Trace: true}); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(20, traced); allocs > 100 {
			t.Errorf("warm Template 1 traced: %.0f heap objects per query, want <= 100", allocs)
		}
	})

	// The same query under a text never seen before, so every execution
	// parses, plans, rewrites and leaves its tree idle. What a miss adds to
	// the 299 objects of the parent's only path is the text itself, one
	// probe (no object) and one insert: the tree's record, its column
	// names, its list and, now and then, a map bucket. The insert is
	// bounded: the map never holds more than maxTreeTexts texts.
	t.Run("first_sight", func(t *testing.T) {
		db := newPaperDB(t, Config{Async: true, CacheSize: 4096})
		mustQuery(t, db, q)
		text := q
		unseen := func() {
			text += " "
			mustQuery(t, db, text)
		}
		if allocs := testing.AllocsPerRun(2*maxTreeTexts, unseen); allocs > 320 {
			t.Errorf("warm Template 1 at first sight: %.0f heap objects per query, want <= 320", allocs)
		}
		db.planMu.Lock()
		defer db.planMu.Unlock()
		if len(db.idle) > maxTreeTexts {
			t.Errorf("%d texts idle, want <= %d", len(db.idle), maxTreeTexts)
		}
	})

	// pump_bound's shape: the same query with the cache off, so 50
	// register-run-settle round trips, against an engine that answers from
	// a map at once: 374 objects and 36 KB per query measured, with the
	// tree re-opened, its ReqSync and DependentJoin buffering in the
	// storage they grew before and a page's strings cut out of one (427
	// and 41 KB with a string per cell, 553 objects and 56.5 KB without
	// the buffer reuse, 2 216 objects before the pump's handoff). Each
	// registered call still makes its key's string, as the call record
	// keeps it.
	t.Run("pump_bound", func(t *testing.T) {
		db, err := Open(Config{Dir: t.TempDir(), Async: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		db.RegisterEngine(mapEngine{"Florida near scuba diving": 39}, "AV")
		loadTables(t, db)
		if res := mustQuery(t, db, q); len(res.Rows) != 50 {
			t.Fatalf("rows: %d", len(res.Rows))
		}
		if allocs := testing.AllocsPerRun(20, func() { mustQuery(t, db, q) }); allocs > 400 {
			t.Errorf("cold Template 1: %.0f heap objects per query, want <= 400", allocs)
		}
	})
}

// mapEngine is a search.Engine that answers at once from a map of counts;
// a query it does not know counts 1.
type mapEngine map[string]int64

func (mapEngine) Name() string { return "altavista" }

func (e mapEngine) Count(q string) (int64, error) {
	if n, ok := e[q]; ok {
		return n, nil
	}
	return 1, nil
}

func (mapEngine) Search(string, int) ([]search.Result, error) { return nil, nil }

func (mapEngine) Fetch(string) (string, error) { return "", search.ErrNotFound }
