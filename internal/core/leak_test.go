package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/websim"
)

// leakQuery joins Sigs above the dependent join on a predicate no row
// satisfies, so the join drops all 50 placeholder tuples before they reach
// the ReqSync: no operator ever takes or discards their calls.
const leakQuery = `SELECT S.Name, R.Name, Count FROM States S, WebCount, Sigs R WHERE S.Name = T1 AND R.Name = S.Capital`

// TestQueryLeavesNoCallRecords: however a query ends, every call it
// registered is taken or disowned by the time it returns — once the
// stragglers let go, the pump holds no call record and no slot.
func TestQueryLeavesNoCallRecords(t *testing.T) {
	slow := search.LatencyModel{Base: 50 * time.Millisecond, CountFactor: 1}
	cases := []struct {
		name    string
		latency search.LatencyModel
		faults  *search.FaultModel
		timeout time.Duration
		sql     string
		wantErr bool
	}{
		{name: "join drops the placeholder tuples", latency: search.ZeroLatency(), sql: leakQuery},
		{name: "mid-query deadline", latency: slow, timeout: 5 * time.Millisecond, wantErr: true,
			sql: `SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = 'surfing'`},
		{name: "engine error under fail", latency: search.ZeroLatency(), wantErr: true,
			faults: &search.FaultModel{Count: search.FaultProfile{Hard: 0.2}},
			sql:    `SELECT Name, Count FROM States, WebCount WHERE Name = T1`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(Config{Dir: t.TempDir(), Async: true})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			var av search.Engine = search.NewDelayed(websim.NewAltaVista(websim.Default()), tc.latency, 1)
			if tc.faults != nil {
				av = search.NewFlaky(av, *tc.faults, search.NewRand(7))
			}
			db.RegisterEngine(av, "AV")
			loadTables(t, db)

			ctx := context.Background()
			if tc.timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, tc.timeout)
				defer cancel()
			}
			res, err := db.QueryContext(ctx, tc.sql)
			if (err != nil) != tc.wantErr {
				t.Fatalf("query error = %v, want error: %v", err, tc.wantErr)
			}
			if err == nil && (len(res.Rows) != 0 || res.Stats.ExternalCalls != 50) {
				t.Fatalf("leak query: %d rows, %d calls; want 0 rows from 50 calls", len(res.Rows), res.Stats.ExternalCalls)
			}
			if held := db.Pump().Held(); held != 0 {
				t.Errorf("pump holds %d call records after the query returned, want 0", held)
			}
			db.Pump().Quiesce()
			running, queued := db.Pump().Active()
			if held := db.Pump().Held(); held != 0 || running != 0 || queued != 0 {
				t.Errorf("quiesced pump: %d held, %d running, %d queued; want all zero", held, running, queued)
			}
		})
	}
}
