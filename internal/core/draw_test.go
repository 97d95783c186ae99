package core

import (
	"context"
	"fmt"
	"testing"
)

// TestLimitDrawDiscipline pins the executor's draw discipline with engine
// call counts: in sync mode every outer tuple bound below a dependent
// join is one external call, so a LIMIT must cost exactly the calls a
// tuple-at-a-time consumer would have made, at every batch granularity.
// The last query is the one a batch-pulling nested-loop outer side would
// silently turn from 1 call into 3.
func TestLimitDrawDiscipline(t *testing.T) {
	db := newPaperDB(t, Config{})
	for qi, tc := range []struct {
		sql   string
		calls int64
	}{
		{`SELECT Name, Count FROM States, WebCount WHERE Name = T1 LIMIT 3`, 3},
		{`SELECT Name, URL FROM States, WebPages WHERE Name = T1 AND Rank <= 2 LIMIT 3`, 2},
		{`SELECT S.Name, R.Name, Count FROM States S, Sigs R, WebCount WHERE S.Name = T1 LIMIT 3`, 3},
		{`SELECT S.Name, R.Name, Count FROM States S, WebCount, Sigs R WHERE S.Name = T1 LIMIT 3`, 1},
	} {
		for _, bs := range []int{0, 1, 3, 256} {
			t.Run(fmt.Sprintf("q%d/batch=%d", qi, bs), func(t *testing.T) {
				res, err := db.QueryContextOpts(context.Background(), tc.sql, QueryOptions{BatchSize: bs})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) != 3 {
					t.Fatalf("rows: %d, want 3", len(res.Rows))
				}
				if res.Stats.ExternalCalls != tc.calls {
					t.Errorf("%s\nexternal calls: %d, want %d", tc.sql, res.Stats.ExternalCalls, tc.calls)
				}
			})
		}
	}
}
