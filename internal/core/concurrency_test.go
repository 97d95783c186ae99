package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/websim"
)

// TestConcurrentExecSharesPump runs many SELECTs from parallel goroutines
// against one DB — the wsqd serving scenario — while a writer inserts into a
// scratch table. Every concurrent result must equal the single-threaded
// reference, and the shared pump must keep total in-flight external calls
// within MaxConcurrentCalls. Run with -race: this test is the detector for
// the catalog / buffer-pool / pump synchronization.
func TestConcurrentExecSharesPump(t *testing.T) {
	const limit = 8
	db, err := Open(Config{Dir: t.TempDir(), Async: true,
		MaxConcurrentCalls: limit, MaxCallsPerDest: limit})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	corpus := websim.Default()
	// A small real latency makes the concurrency bound meaningful: calls
	// from different queries genuinely overlap inside the pump.
	model := search.LatencyModel{Base: 2 * time.Millisecond, CountFactor: 1}
	db.RegisterEngine(search.NewDelayed(websim.NewAltaVista(corpus), model, 1), "AV")
	db.RegisterEngine(search.NewDelayed(websim.NewGoogle(corpus), model, 2), "G")
	loadTables(t, db)
	mustExec(t, db, `CREATE TABLE Scratch (V INT)`)

	// Sorting on the async attribute keeps the ReqSync below the Sort, so
	// results are deterministic; the LIMIT cuts off before count ties.
	queries := []string{
		`SELECT Name, Count FROM States, WebCount
		 WHERE Name = T1 AND T2 = 'scuba diving' ORDER BY Count DESC LIMIT 3`,
		`SELECT Name, Count FROM States, WebCount
		 WHERE Name = T1 AND T2 = 'computer' ORDER BY Count DESC LIMIT 3`,
		`SELECT Name FROM States WHERE Population > 10000000`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = mustExec(t, db, q).Format()
	}
	db.Pump().ResetStats()

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := range queries {
				q := queries[(r+i)%len(queries)]
				res, err := db.ExecContext(context.Background(), q)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %s: %w", r, q, err)
					return
				}
				if got := res.Format(); got != want[(r+i)%len(queries)] {
					errs <- fmt.Errorf("reader %d: result diverged from single-threaded run:\n got: %s\nwant: %s",
						r, got, want[(r+i)%len(queries)])
					return
				}
			}
		}(r)
	}
	// A concurrent writer exercises the DB-level reader/writer discipline.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := db.ExecContext(context.Background(), fmt.Sprintf(`INSERT INTO Scratch VALUES (%d)`, i)); err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := db.Pump().Stats()
	if st.MaxActive > limit {
		t.Errorf("pump MaxActive = %d, exceeds MaxConcurrentCalls = %d", st.MaxActive, limit)
	}
	if st.Registered == 0 {
		t.Error("no external calls registered; the web queries did not run")
	}
	res := mustExec(t, db, `SELECT V FROM Scratch`)
	if len(res.Rows) != 20 {
		t.Errorf("scratch table has %d rows, want 20", len(res.Rows))
	}
}

// TestExecContextDeadline verifies that a context deadline aborts a query
// mid-execution with context.DeadlineExceeded and that the shared pump
// drains afterwards instead of leaking the query's queued calls.
func TestExecContextDeadline(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir(), Async: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	corpus := websim.Default()
	model := search.LatencyModel{Base: 100 * time.Millisecond, CountFactor: 1}
	db.RegisterEngine(search.NewDelayed(websim.NewAltaVista(corpus), model, 1), "AV")
	db.RegisterEngine(search.NewDelayed(websim.NewGoogle(corpus), model, 2), "G")
	loadTables(t, db)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err = db.ExecContext(ctx,
		`SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = 'surfing'`)
	if err == nil {
		t.Fatal("expected a deadline error")
	}
	if ctx.Err() == nil {
		t.Fatalf("query finished before its deadline: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		running, queued := db.Pump().Active()
		if running == 0 && queued == 0 {
			if held := db.Pump().Held(); held != 0 {
				t.Errorf("drained pump still holds %d call records", held)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pump did not drain after deadline: %d running, %d queued", running, queued)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
