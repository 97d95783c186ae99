package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/harness"
	"repro/internal/search"
	"repro/internal/shard"
	"repro/internal/types"
)

// callLatency is the fixed delay a replayed engine call sleeps on the
// workloads that pay for calls.
const callLatency = 2 * time.Millisecond

// poolSize is the number of seeded constants (and so queries) a web
// workload cycles through.
const poolSize = 16

// spec is one named workload: what it sends and how the program under
// test is configured for it. The reasons each exists are recorded in
// BENCHMARK.json and README.md.
type spec struct {
	name string
	// perCPU sizes the closed loop: one client per CPU for the workloads
	// whose work is CPU, a single client for the ones that wait on calls.
	perCPU bool
	// web workloads build the corpus and record replay engines.
	web bool
	// latency is slept by every replayed call during timed phases.
	latency time.Duration
	// cache is the result-cache capacity (0 = off); warm fills it in
	// set-up so timed queries never reach an engine.
	cache int
	warm  bool
	// tier serves the queries through 2 workers and a coordinator.
	tier bool
	// tables loads whatever the queries need beyond the paper's tables.
	tables func(ctx context.Context, db *core.DB, r *search.Rand) (insertRowsPerS float64, err error)
	// queries generates the SQL from the seed.
	queries func(r *search.Rand) ([]string, error)
	// callsPerQuery is the number of engine calls one query must make;
	// the smoke test and the run summary compare against it.
	callsPerQuery int
}

var specs = []*spec{
	{
		name: "t2_wave", web: true, latency: callLatency, cache: 256,
		queries: template2Queries, callsPerQuery: 100,
	},
	{
		name: "fig7_cross", web: true, latency: callLatency,
		tables: loadTiny, queries: fig7Queries, callsPerQuery: 150,
	},
	{
		name: "pump_bound", web: true, perCPU: true,
		queries: template1Queries, callsPerQuery: 50,
	},
	{
		name: "hot_cache", web: true, perCPU: true, latency: callLatency, cache: 4096, warm: true,
		queries: template1Queries,
	},
	{
		name: "local_join", perCPU: true,
		tables: loadOrders, queries: localJoinQueries,
	},
	{
		name: "tier_hot", web: true, perCPU: true, latency: callLatency, cache: 4096, warm: true, tier: true,
		queries: template1Queries,
	},
}

func specByName(name string) (*spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return nil, false
}

func specNames() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

// constants returns n of the template constants in seeded order.
func constants(r *search.Rand, n int) []string {
	pool := append([]string(nil), datasets.TemplateConstants...)
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool[:n]
}

func template1Queries(r *search.Rand) ([]string, error) {
	var out []string
	for _, c := range constants(r, poolSize) {
		q, err := harness.Template(1, c, "")
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

// template2Queries pairs 2×poolSize distinct constants, so the queries
// share no call key: 16 × 100 = 1 600 keys cycle through a 256-entry
// cache, every lookup misses and every completion evicts.
func template2Queries(r *search.Rand) ([]string, error) {
	cs := constants(r, 2*poolSize)
	var out []string
	for i := 0; i < poolSize; i++ {
		q, err := harness.Template(2, cs[i], cs[poolSize+i])
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

// fig7Queries is the Figure 7(a) hazard: the cross product with Tiny
// sits below the dependent join, so each state's count is requested
// |Tiny| = 3 times — 150 calls for 50 distinct keys.
func fig7Queries(r *search.Rand) ([]string, error) {
	var out []string
	for _, c := range constants(r, poolSize) {
		out = append(out, fmt.Sprintf(
			`SELECT S.Name, R.V, Count FROM States S, Tiny R, WebCount WHERE S.Name = T1 AND T2 = '%s'`, c))
	}
	return out, nil
}

func loadTiny(ctx context.Context, db *core.DB, _ *search.Rand) (float64, error) {
	if _, err := db.ExecContext(ctx, `CREATE TABLE Tiny (V INT)`); err != nil {
		return 0, err
	}
	_, err := db.ExecContext(ctx, `INSERT INTO Tiny VALUES (1), (2), (3)`)
	return 0, err
}

const (
	ordersRows = 30000
	custRows   = 1000
)

var regions = []string{"north", "south", "east", "west", "central", "coast", "plains", "islands"}

func localJoinQueries(*search.Rand) ([]string, error) {
	return []string{`SELECT Region, COUNT(*), SUM(Amount) FROM Orders O, Cust C ` +
		`WHERE O.Cust = C.Id AND Amount > 100 GROUP BY Region ORDER BY Region`}, nil
}

// loadOrders generates the local_join tables from the seed. Row counts
// and value ranges are fixed, so every seed gives the same amount of work:
// Amount is uniform on [0,200), and Amount > 100 keeps about half.
func loadOrders(ctx context.Context, db *core.DB, r *search.Rand) (float64, error) {
	for _, ddl := range []string{
		`CREATE TABLE Cust (Id INT, Region VARCHAR)`,
		`CREATE TABLE Orders (Id INT, Cust INT, Amount INT)`,
	} {
		if _, err := db.ExecContext(ctx, ddl); err != nil {
			return 0, err
		}
	}
	cust, _ := db.Catalog().Get("Cust")
	for i := 0; i < custRows; i++ {
		row := types.Tuple{types.Int(int64(i)), types.Str(regions[r.Intn(len(regions))])}
		if _, err := cust.Insert(row); err != nil {
			return 0, err
		}
	}
	orders, _ := db.Catalog().Get("Orders")
	start := time.Now()
	for i := 0; i < ordersRows; i++ {
		row := types.Tuple{types.Int(int64(i)), types.Int(int64(r.Intn(custRows))), types.Int(int64(r.Intn(200)))}
		if _, err := orders.Insert(row); err != nil {
			return 0, err
		}
	}
	return ordersRows / time.Since(start).Seconds(), nil
}

// routeVariants doubles a query pool for the tier: each query plus a
// decoy-literal twin whose RouteKey lands on the other worker. Both issue
// the same engine calls, so every worker ends up serving every
// expression.
func routeVariants(base []string, members []shard.Member) ([]string, error) {
	ring := shard.NewRing(members, 0)
	var out []string
	for _, q := range base {
		home, ok := ring.Owner(shard.RouteKey(q))
		if !ok {
			return nil, fmt.Errorf("no owner for %q", q)
		}
		twin := ""
		for i := 0; i < 200 && twin == ""; i++ {
			alt := strings.Replace(q, " WHERE ", fmt.Sprintf(" WHERE Name <> 'no-such-state-%d' AND ", i), 1)
			if m, _ := ring.Owner(shard.RouteKey(alt)); m.ID != home.ID {
				twin = alt
			}
		}
		if twin == "" {
			return nil, fmt.Errorf("no route variant lands off %s for %q", home.ID, q)
		}
		out = append(out, q, twin)
	}
	return out, nil
}
