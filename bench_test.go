// Benchmarks regenerating the WSQ/DSQ paper's evaluation artifacts.
//
// Table 1 (the paper's only results table) is covered by the
// BenchmarkTable1Template{1,2,3}{Sync,Async} pairs: the reported metric of
// interest is the ratio of the Sync and Async ns/op numbers, which the
// paper reports as 6.0x-19.6x (growing with the template's call count).
// The latency here is scaled down (~25 ms/call vs the 1999 web's ~1 s) so
// the suite finishes in minutes; the sync/async ratio, not the absolute
// time, is the reproduced quantity. cmd/wsqbench -paper runs the faithful
// slow version.
//
// The query-plan figures (3-8) are validated structurally in
// internal/async tests; the benchmarks here measure their execution-time
// behavior (Figure 7's redundant-call hazard and cache fix, Figure 8's
// join-as-selection rewrite). Ablation benchmarks cover the design knobs
// the paper discusses: the ReqPump concurrency limit, the [HN96] result
// cache, and percolation itself.
package repro

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/async"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/search"
	"repro/internal/sqlparse"
)

// benchLatency keeps the suite fast while staying latency-dominated.
var benchLatency = search.LatencyModel{Base: 20 * time.Millisecond, Jitter: 10 * time.Millisecond, CountFactor: 0.8}

func newBenchEnv(b *testing.B, opts harness.Options) *harness.Env {
	b.Helper()
	dir, err := os.MkdirTemp("", "wsqbench-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	opts.Dir = dir
	if opts.Latency == (search.LatencyModel{}) {
		opts.Latency = benchLatency
	}
	env, err := harness.NewEnv(opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(env.Close)
	return env
}

// benchTemplate measures one Table 1 cell: mean wall time per template
// query in the given mode.
func benchTemplate(b *testing.B, template int, asyncMode bool) {
	env := newBenchEnv(b, harness.Options{})
	queries, err := harness.TemplateQueries(template, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	env.DB.SetAsync(asyncMode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := env.DB.QueryContext(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Table 1 -----------------------------------------------------------

func BenchmarkTable1Template1Sync(b *testing.B)  { benchTemplate(b, 1, false) }
func BenchmarkTable1Template1Async(b *testing.B) { benchTemplate(b, 1, true) }
func BenchmarkTable1Template2Sync(b *testing.B)  { benchTemplate(b, 2, false) }
func BenchmarkTable1Template2Async(b *testing.B) { benchTemplate(b, 2, true) }
func BenchmarkTable1Template3Sync(b *testing.B)  { benchTemplate(b, 3, false) }
func BenchmarkTable1Template3Async(b *testing.B) { benchTemplate(b, 3, true) }

// --- Figure 7: repeated calls under a cross-product, cache ablation ------

// The Figure 7(a) hazard: a cross-product below a dependent join repeats
// every WebCount call |R| times. The cache restores one call per distinct
// binding. Per query it reports the pump's registrations, the executions
// it started and the registrations it coalesced onto one in flight.
func benchFigure7(b *testing.B, cacheSize int) {
	env := newBenchEnv(b, harness.Options{CacheSize: cacheSize})
	if _, err := env.DB.ExecContext(context.Background(), `CREATE TABLE R (V INT)`); err != nil {
		b.Fatal(err)
	}
	if _, err := env.DB.ExecContext(context.Background(), `INSERT INTO R VALUES (1), (2), (3)`); err != nil {
		b.Fatal(err)
	}
	q := `SELECT S.Name, R.V, Count FROM Sigs S, R, WebCount WHERE S.Name = T1`
	env.DB.SetAsync(true)
	before := env.DB.Pump().Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cacheSize > 0 {
			env.DB.Cache().Reset()
		}
		if _, err := env.DB.QueryContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := env.DB.Pump().Stats()
	perOp := func(d int64) float64 { return float64(d) / float64(b.N) }
	b.ReportMetric(perOp(after.Registered-before.Registered), "registered/op")
	b.ReportMetric(perOp(after.Started-before.Started), "started/op")
	b.ReportMetric(perOp(after.Coalesced-before.Coalesced), "coalesced/op")
}

func BenchmarkFigure7CrossProductNoCache(b *testing.B) { benchFigure7(b, 0) }
func BenchmarkFigure7CrossProductCached(b *testing.B)  { benchFigure7(b, 4096) }

// --- Figure 8: bushy URL-intersection query ------------------------------

func benchFigure8(b *testing.B, asyncMode bool) {
	env := newBenchEnv(b, harness.Options{})
	q := `SELECT S.URL FROM Sigs, WebPages S, CSFields, WebPages C
	      WHERE Sigs.Name = S.T1 AND CSFields.Name = C.T1
	        AND S.Rank <= 5 AND C.Rank <= 5 AND S.URL = C.URL`
	env.DB.SetAsync(asyncMode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.DB.QueryContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8Sync(b *testing.B)  { benchFigure8(b, false) }
func BenchmarkFigure8Async(b *testing.B) { benchFigure8(b, true) }

// --- Section 4.2: crawler round ------------------------------------------

func benchCrawler(b *testing.B, asyncMode bool) {
	env := newBenchEnv(b, harness.Options{})
	env.DB.SetAsync(true)
	seeds, err := env.DB.QueryContext(context.Background(), `SELECT URL FROM States, WebPages WHERE Name = T1 AND Rank <= 1`)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := env.DB.ExecContext(context.Background(), `CREATE TABLE Frontier (URL VARCHAR)`); err != nil {
		b.Fatal(err)
	}
	tab, _ := env.DB.Catalog().Get("Frontier")
	for _, r := range seeds.Rows {
		tab.Insert(r)
	}
	env.DB.SetAsync(asyncMode)
	q := `SELECT F.URL, Status FROM Frontier F, WebFetch WHERE F.URL = WebFetch.URL`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.DB.QueryContext(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrawlerRoundSync(b *testing.B)  { benchCrawler(b, false) }
func BenchmarkCrawlerRoundAsync(b *testing.B) { benchCrawler(b, true) }

// --- Ablation: ReqPump concurrency limit ----------------------------------

// BenchmarkConcurrencyLimit reports, next to ns/op, the most calls the
// pump had in flight at once (peak_inflight), which the limit caps.
func BenchmarkConcurrencyLimit(b *testing.B) {
	for _, limit := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			env := newBenchEnv(b, harness.Options{MaxConcurrentCalls: limit, MaxCallsPerDest: limit})
			q, _ := harness.Template(1, "computer", "")
			env.DB.SetAsync(true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.DB.QueryContext(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(env.DB.Pump().Stats().MaxActive), "peak_inflight")
		})
	}
}

// --- Ablation: percolation ------------------------------------------------

// BenchmarkPercolation compares the full rewrite against insertion-only
// (ReqSync pinned above its AEVScan): without percolation each dependent
// join blocks per outer tuple and asynchrony buys almost nothing.
func BenchmarkPercolation(b *testing.B) {
	for _, full := range []bool{true, false} {
		name := "insert-only"
		if full {
			name = "full-rewrite"
		}
		b.Run(name, func(b *testing.B) {
			env := newBenchEnv(b, harness.Options{})
			sel, err := sqlparse.ParseSelect(
				`SELECT Name, Count FROM Sigs, WebCount WHERE Name = T1 AND T2 = 'Knuth'`)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				env.DB.SetAsync(false)
				op, err := env.DB.Plan(sel)
				if err != nil {
					b.Fatal(err)
				}
				if full {
					op = async.Rewrite(op, env.DB.Pump())
				} else {
					op = async.RewriteInsertOnly(op, env.DB.Pump())
				}
				if _, err := exec.Run(exec.NewContext(), op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
