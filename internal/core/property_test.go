package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datasets"
)

// TestPropertySyncAsyncEquivalence generates a battery of random WSQ
// queries and checks the core invariant of asynchronous iteration: the
// rewritten plan produces exactly the same multiset of tuples as the
// sequential plan (Section 4.5's correctness claim), with and without the
// result cache.
func TestPropertySyncAsyncEquivalence(t *testing.T) {
	configs := []Config{
		{},
		{CacheSize: 256},
	}
	rng := rand.New(rand.NewSource(20000))
	queries := randomQueries(rng, 12)
	for ci, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("config=%d", ci), func(t *testing.T) {
			db := newPaperDB(t, cfg)
			for _, q := range queries {
				syncRows := multisetOf(t, db, q, false)
				asyncRows := multisetOf(t, db, q, true)
				if len(syncRows) != len(asyncRows) {
					t.Fatalf("%s:\nsync %d rows, async %d rows", q, len(syncRows), len(asyncRows))
				}
				for i := range syncRows {
					if syncRows[i] != asyncRows[i] {
						t.Fatalf("%s:\nmultisets differ at %d:\n  %s\n  %s", q, i, syncRows[i], asyncRows[i])
					}
				}
			}
		})
	}
}

func multisetOf(t *testing.T, db *DB, q string, async bool) []string {
	t.Helper()
	db.SetAsync(async)
	res, err := db.QueryContext(context.Background(), q)
	if err != nil {
		t.Fatalf("%s (async=%v): %v", q, async, err)
	}
	keys := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		keys[i] = r.Key()
	}
	sort.Strings(keys)
	return keys
}

// randomQueries draws WSQ query shapes covering the interesting plan
// space: single and double virtual tables, WebCount and WebPages, both
// engines, constant terms, rank limits, filters over call results, and
// order-by over computed values.
func randomQueries(rng *rand.Rand, n int) []string {
	consts := datasets.TemplateConstants
	pick := func() string { return consts[rng.Intn(len(consts))] }
	var out []string
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0: // Template 1 variant
			out = append(out, fmt.Sprintf(
				`SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = '%s' ORDER BY Count DESC`, pick()))
		case 1: // WebPages with random rank limit
			out = append(out, fmt.Sprintf(
				`SELECT Name, URL, Rank FROM Sigs, WebPages WHERE Name = T1 AND Rank <= %d ORDER BY Name, Rank`,
				1+rng.Intn(4)))
		case 2: // two engines, URL intersection
			out = append(out, fmt.Sprintf(
				`SELECT Name, AV.URL FROM Sigs, WebPages_AV AV, WebPages_Google G
				 WHERE Name = AV.T1 AND Name = G.T1 AND AV.Rank <= %d AND G.Rank <= %d AND AV.URL = G.URL`,
				1+rng.Intn(5), 1+rng.Intn(5)))
		case 3: // filter over the call-supplied count
			out = append(out, fmt.Sprintf(
				`SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = '%s' AND Count > %d`,
				pick(), rng.Intn(60)))
		case 4: // double WebCount (Query 4 shape)
			out = append(out, `SELECT Capital, C.Count, Name, S.Count FROM States, WebCount C, WebCount S
				 WHERE Capital = C.T1 AND Name = S.T1 AND C.Count > S.Count`)
		default: // computed projection + alias ordering (Query 2 shape)
			out = append(out, fmt.Sprintf(
				`SELECT Name, Count / Population AS C FROM States, WebCount
				 WHERE Name = T1 AND T2 = '%s' ORDER BY C DESC`, pick()))
		}
	}
	return out
}
