package core

import (
	"context"
	"testing"
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
