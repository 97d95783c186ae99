package core

import (
	"context"
	"testing"

	"repro/internal/search"
	"repro/internal/types"
)

// BenchmarkWarmTemplate1 times the hot_cache workload's core in process:
// Template 1 from a warm result cache, on every GOMAXPROCS goroutine at
// once, with no engine call — parse, plan and rewrite skipped by the idle
// tree, 50 cache-hit registrations, and the executor. It is the profile
// target for that path:
//
//	go test ./internal/core -run '^$' -bench WarmTemplate1 -o core.test -cpuprofile cpu.out
//	go tool pprof -top core.test cpu.out
func BenchmarkWarmTemplate1(b *testing.B) {
	const q = `SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = 'scuba diving'`
	db := newPaperDB(b, Config{Async: true, CacheSize: 4096})
	if res := mustQuery(b, db, q); len(res.Rows) != 50 {
		b.Fatalf("rows: %d", len(res.Rows))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := db.QueryContext(context.Background(), q); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// localJoinSQL is the local_join workload's one statement: Orders
// hash-joined to Cust, filtered, grouped and sorted.
const localJoinSQL = `SELECT Region, COUNT(*), SUM(Amount) FROM Orders O, Cust C ` +
	`WHERE O.Cust = C.Id AND Amount > 100 GROUP BY Region ORDER BY Region`

// loadOrders fills db with local_join's tables as the benchmark makes
// them: Cust(Id, Region) with one of eight regions per customer, and
// Orders(Id, Cust, Amount) with a customer and an Amount on [0, 200)
// drawn from seed. It returns the rows it inserted.
func loadOrders(tb testing.TB, db *DB, custRows, ordersRows int, seed int64) (cust, orders []types.Tuple) {
	tb.Helper()
	regions := []string{"north", "south", "east", "west", "central", "coast", "plains", "islands"}
	r := search.NewRand(seed)
	mustExec(tb, db, `CREATE TABLE Cust (Id INT, Region VARCHAR)`)
	mustExec(tb, db, `CREATE TABLE Orders (Id INT, Cust INT, Amount INT)`)
	for i := 0; i < custRows; i++ {
		cust = append(cust, types.Tuple{types.Int(int64(i)), types.Str(regions[r.Intn(len(regions))])})
	}
	for i := 0; i < ordersRows; i++ {
		orders = append(orders, types.Tuple{types.Int(int64(i)), types.Int(int64(r.Intn(custRows))), types.Int(int64(r.Intn(200)))})
	}
	for name, rows := range map[string][]types.Tuple{"Cust": cust, "Orders": orders} {
		tab, _ := db.Catalog().Get(name)
		for _, row := range rows {
			if _, err := tab.Insert(row); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return cust, orders
}

// BenchmarkLocalJoin times the local_join workload's query in process,
// single-threaded, over its 30 000 Orders and 1 000 Cust rows: scan,
// filter, hash join, group and sort, with no web and no pump work. It is
// the profile target for the executor's local path:
//
//	go test ./internal/core -run '^$' -bench LocalJoin -o core.test -cpuprofile cpu.out
//	go tool pprof -top core.test cpu.out
func BenchmarkLocalJoin(b *testing.B) {
	db := newPaperDB(b, Config{Async: true})
	loadOrders(b, db, 1000, 30000, 1)
	if res := mustQuery(b, db, localJoinSQL); len(res.Rows) != 8 {
		b.Fatalf("rows: %v", res.Rows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.QueryContext(context.Background(), localJoinSQL); err != nil {
			b.Fatal(err)
		}
	}
}
