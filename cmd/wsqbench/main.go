// Command wsqbench regenerates the paper's evaluation (Table 1) and the
// ablation experiments: it times the three query templates with and
// without asynchronous iteration and reports mean seconds plus the
// improvement factor.
//
// Usage:
//
//	wsqbench                          # full Table 1, bench latency (~25 ms)
//	wsqbench -paper                   # paper latency (~750 ms) — slow, faithful
//	wsqbench -template 2 -runs 1      # one cell
//	wsqbench -sweep-concurrency       # ablation: improvement vs pump limit
//	wsqbench -sweep-cache             # ablation: result cache on/off
//	wsqbench -http                    # engine calls over localhost HTTP
//	wsqbench -flaky 0.3               # 30% transient faults, masked by retries
//	wsqbench -serve -clients 8        # drive N concurrent clients at a wsqd
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/async"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/server"
)

func main() {
	template := flag.Int("template", 0, "run a single template (1-3); 0 = all")
	runs := flag.Int("runs", 2, "runs per template")
	instances := flag.Int("instances", 8, "query instances per run")
	paper := flag.Bool("paper", false, "use paper-scale latency (~750 ms/call)")
	latency := flag.Duration("latency", 0, "override base latency")
	useHTTP := flag.Bool("http", false, "route engine calls over localhost HTTP")
	maxTotal := flag.Int("max-concurrent", 0, "pump total concurrency limit (0 = default)")
	maxDest := flag.Int("max-per-dest", 0, "pump per-destination limit (0 = default)")
	sweepConc := flag.Bool("sweep-concurrency", false, "ablation: sweep the per-destination limit")
	sweepCache := flag.Bool("sweep-cache", false, "ablation: compare cache off/on")
	serve := flag.Bool("serve", false, "serving-mode load test: N concurrent clients against one wsqd")
	clients := flag.Int("clients", 8, "-serve: number of concurrent clients")
	duration := flag.Duration("duration", 5*time.Second, "-serve: load duration per phase")
	serverURL := flag.String("server-url", "", "-serve: target an external wsqd (default: in-process)")
	cacheSize := flag.Int("serve-cache", 4096, "-serve: result cache capacity for the in-process wsqd")
	flaky := flag.Float64("flaky", 0, "inject transient faults with this probability (adds retry masking)")
	jsonOut := flag.String("json-out", "", "write a machine-readable JSON report (BENCH_*.json) to this path")
	flag.Parse()
	faultProb = *flaky
	jsonPath = *jsonOut

	model := search.BenchLatency()
	if *paper {
		model = search.PaperLatency()
	}
	if *latency > 0 {
		model = search.LatencyModel{Base: *latency, Jitter: *latency / 2, CountFactor: 0.8}
	}

	switch {
	case *serve:
		serveBench(model, *clients, *duration, *serverURL, *cacheSize, *maxTotal, *maxDest)
	case *sweepConc:
		sweepConcurrency(model, *instances, *useHTTP)
	case *sweepCache:
		sweepCaching(model, *instances, *useHTTP)
	default:
		table1(model, *template, *runs, *instances, *useHTTP, *maxTotal, *maxDest)
	}
}

// serveBench demonstrates cross-query call sharing: N concurrent clients
// fire Template-1 queries at one wsqd, whose single ReqPump bounds and
// coalesces all their external calls. A 1-client phase establishes the
// baseline; the N-client phase shows aggregate throughput scaling while
// the pump's MaxActive never exceeds its configured limit.
func serveBench(model search.LatencyModel, clients int, duration time.Duration, url string, cacheSize, maxTotal, maxDest int) {
	if url == "" {
		env := newEnv(model, false, maxTotal, maxDest, cacheSize)
		defer env.Close()
		srv := server.New(env.DB, server.Options{MaxConcurrentQueries: 4 * clients})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		defer hs.Close()
		url = "http://" + ln.Addr().String()
		fmt.Printf("in-process wsqd on %s (latency %v+%v, cache %d)\n", url, model.Base, model.Jitter, cacheSize)
	}
	cl := server.NewClient(url)

	queries := template1Pool()
	fmt.Printf("workload: template-1 queries, %d distinct constants, %v per phase\n\n", len(queries), duration)

	base := drive(cl, 1, duration, queries)
	fmt.Printf("%2d client:  %6d ok  %4d rejected  %4d errors  %8.1f q/s\n",
		1, base.ok, base.rejected, base.errors, base.qps)
	load := drive(cl, clients, duration, queries)
	fmt.Printf("%2d clients: %6d ok  %4d rejected  %4d errors  %8.1f q/s  (%.1fx aggregate)\n",
		clients, load.ok, load.rejected, load.errors, load.qps, load.qps/base.qps)

	st, err := cl.Status(context.Background())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nshared pump: registered=%d started=%d coalesced=%d cache-hits=%d max-concurrent=%d\n",
		st.Pump.Registered, st.Pump.Started, st.Pump.Coalesced, st.Pump.CacheHits, st.Pump.MaxActive)
	fmt.Printf("server latency: p50=%.1fms p90=%.1fms p99=%.1fms (n=%d)\n",
		st.Queries.LatencyMS.P50, st.Queries.LatencyMS.P90, st.Queries.LatencyMS.P99, st.Queries.LatencyMS.Count)
	saved := st.Pump.Coalesced + st.Pump.CacheHits
	if st.Pump.Registered > 0 {
		fmt.Printf("cross-query sharing: %d of %d registrations (%.0f%%) never hit the network\n",
			saved, st.Pump.Registered, 100*float64(saved)/float64(st.Pump.Registered))
	}
	writeReport(benchReport{
		Mode:          "serve",
		LatencyBaseMS: float64(model.Base.Microseconds()) / 1000.0,
		Pump: &benchPump{
			Registered: st.Pump.Registered, Started: st.Pump.Started,
			CacheHits: st.Pump.CacheHits, Coalesced: st.Pump.Coalesced,
			Retries: st.Pump.Retries, CallsFailed: st.Pump.CallsFailed,
			MaxActive: st.Pump.MaxActive,
		},
		Serve: &benchServe{
			Clients: clients, BaseQPS: base.qps, LoadQPS: load.qps,
			Speedup: load.qps / base.qps,
			OK:      base.ok + load.ok, Rejected: base.rejected + load.rejected,
			Errors:    base.errors + load.errors,
			ServerP50: st.Queries.LatencyMS.P50,
			ServerP90: st.Queries.LatencyMS.P90,
			ServerP99: st.Queries.LatencyMS.P99,
		},
	})
}

// template1Pool instantiates one Template-1 query per available constant.
func template1Pool() []string {
	qs, err := harness.TemplateQueries(1, 1, 8)
	if err != nil {
		fatal(err)
	}
	more, err := harness.TemplateQueries(1, 2, 8)
	if err == nil {
		qs = append(qs, more...)
	}
	return qs
}

type loadResult struct {
	ok, rejected, errors int64
	qps                  float64
}

// drive runs n clients round-robin over the query pool for d.
func drive(cl *server.Client, n int, d time.Duration, queries []string) loadResult {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	var mu sync.Mutex
	var res loadResult
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := id; ctx.Err() == nil; j++ {
				_, err := cl.Query(ctx, queries[j%len(queries)], d)
				mu.Lock()
				switch {
				case err == nil:
					res.ok++
				case ctx.Err() != nil:
					// phase over; don't count the aborted request
				case errors.Is(err, server.ErrOverloaded):
					res.rejected++
				default:
					res.errors++
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	res.qps = float64(res.ok) / time.Since(start).Seconds()
	return res
}

// faultProb is the -flaky probability; when set, every environment gets a
// seeded transient-fault injector plus a retry policy that masks it.
var faultProb float64

// jsonPath is the -json-out destination; empty disables the report.
var jsonPath string

// ---------------------------------------------------------------------------
// Machine-readable report (-json-out)

// benchQuantiles summarizes one latency distribution, estimated from an
// obs.Histogram (fixed buckets, linear interpolation — the same estimate
// Prometheus' histogram_quantile produces from the /metrics export).
type benchQuantiles struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
}

func quantiles(h *obs.Histogram) benchQuantiles {
	s := h.Snapshot()
	q := benchQuantiles{Count: s.Count}
	if s.Count > 0 {
		q.MeanMS = 1000 * s.Sum / float64(s.Count)
		q.P50MS = 1000 * s.Quantile(0.50)
		q.P95MS = 1000 * s.Quantile(0.95)
		q.P99MS = 1000 * s.Quantile(0.99)
	}
	return q
}

// benchCell is one (template, run) row of the Table 1 reproduction.
type benchCell struct {
	Template       int     `json:"template"`
	Run            int     `json:"run"`
	Queries        int     `json:"queries"`
	SyncMeanS      float64 `json:"sync_mean_s"`
	AsyncMeanS     float64 `json:"async_mean_s"`
	Improvement    float64 `json:"improvement"`
	MaxConcurrency int     `json:"max_concurrency"`
}

// benchPump is the pump-counter snapshot at the end of the run.
type benchPump struct {
	Registered  int64 `json:"registered"`
	Started     int64 `json:"started"`
	Completed   int64 `json:"completed"`
	CacheHits   int64 `json:"cache_hits"`
	Coalesced   int64 `json:"coalesced"`
	Retries     int64 `json:"retries"`
	CallsFailed int64 `json:"calls_failed"`
	MaxActive   int   `json:"max_active"`
}

// benchServe is the -serve mode summary.
type benchServe struct {
	Clients   int     `json:"clients"`
	BaseQPS   float64 `json:"base_qps"`
	LoadQPS   float64 `json:"load_qps"`
	Speedup   float64 `json:"speedup"`
	OK        int64   `json:"ok"`
	Rejected  int64   `json:"rejected"`
	Errors    int64   `json:"errors"`
	ServerP50 float64 `json:"server_p50_ms"`
	ServerP90 float64 `json:"server_p90_ms"`
	ServerP99 float64 `json:"server_p99_ms"`
}

// benchReport is the -json-out document.
type benchReport struct {
	Mode          string                    `json:"mode"`
	LatencyBaseMS float64                   `json:"latency_base_ms"`
	FaultProb     float64                   `json:"fault_prob,omitempty"`
	Results       []benchCell               `json:"results,omitempty"`
	Latency       map[string]benchQuantiles `json:"latency,omitempty"`
	Pump          *benchPump                `json:"pump,omitempty"`
	Serve         *benchServe               `json:"serve,omitempty"`
}

// writeReport marshals the report to -json-out (no-op when unset).
func writeReport(rep benchReport) {
	if jsonPath == "" {
		return
	}
	rep.FaultProb = faultProb
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("\nwrote %s\n", jsonPath)
}

func newEnv(model search.LatencyModel, useHTTP bool, maxTotal, maxDest, cacheSize int) *harness.Env {
	dir, err := os.MkdirTemp("", "wsqbench-*")
	if err != nil {
		fatal(err)
	}
	opts := harness.Options{
		Dir: dir, Latency: model, HTTP: useHTTP,
		MaxConcurrentCalls: maxTotal, MaxCallsPerDest: maxDest, CacheSize: cacheSize,
	}
	if faultProb > 0 {
		faults := search.TransientOnly(faultProb)
		opts.Faults = &faults
		// Deep attempt budget: at -flaky 0.3 a benchmark run issues
		// thousands of calls, so the per-call residual failure rate must be
		// tiny for the whole suite to be fault-transparent.
		opts.Retry = async.RetryPolicy{
			MaxAttempts: 12,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
			JitterFrac:  0.5,
		}
	}
	env, err := harness.NewEnv(opts)
	if err != nil {
		fatal(err)
	}
	return env
}

func table1(model search.LatencyModel, template, runs, instances int, useHTTP bool, maxTotal, maxDest int) {
	env := newEnv(model, useHTTP, maxTotal, maxDest, 0)
	defer env.Close()
	fmt.Printf("WSQ Table 1 reproduction — latency %v+%v jitter, %d instances/run, http=%v\n\n",
		model.Base, model.Jitter, instances, useHTTP)
	var results []harness.RunResult
	for tmpl := 1; tmpl <= 3; tmpl++ {
		if template != 0 && tmpl != template {
			continue
		}
		for run := 1; run <= runs; run++ {
			r, err := harness.RunTemplate(context.Background(), env, tmpl, run, instances)
			if err != nil {
				fatal(err)
			}
			results = append(results, r)
			fmt.Printf("template %d run %d: sync %.2fs  async %.2fs  %.1fx (peak concurrency %d)\n",
				r.Template, r.Run, r.SyncMean.Seconds(), r.AsyncMean.Seconds(), r.Improvement, r.MaxConcurrency)
		}
	}
	fmt.Println()
	fmt.Print(harness.FormatTable1(results))
	cells := make([]benchCell, len(results))
	for i, r := range results {
		cells[i] = benchCell{
			Template: r.Template, Run: r.Run, Queries: r.Queries,
			SyncMeanS: r.SyncMean.Seconds(), AsyncMeanS: r.AsyncMean.Seconds(),
			Improvement: r.Improvement, MaxConcurrency: r.MaxConcurrency,
		}
	}
	writeReport(benchReport{
		Mode:          "table1",
		LatencyBaseMS: float64(model.Base.Microseconds()) / 1000.0,
		Results:       cells,
		// No pump snapshot here: ResetBetweenRuns zeroes the counters before
		// the (pump-less) synchronous pass, so the end state is vacuous.
		Latency: map[string]benchQuantiles{
			"sync":  quantiles(env.SyncLatency),
			"async": quantiles(env.AsyncLatency),
		},
	})
	if faultProb > 0 {
		st := env.DB.Pump().Stats()
		av, g := env.FlakyAV.Stats(), env.FlakyGoogle.Stats()
		fmt.Printf("\nfault injection: %.0f%% transient — injected %d faults, pump retries %d (failed calls: %d)\n",
			100*faultProb, av.Injected()+g.Injected(), st.Retries, st.CallsFailed)
	}
	fmt.Println("\nPaper (Table 1): T1 6.0x/9.4x, T2 13.5x/12.5x, T3 19.6x/16.4x — factors grow")
	fmt.Println("with template call count; absolute magnitude tracks the concurrency limit.")
}

// sweepConcurrency shows how the Table 1 improvement factor scales with
// the pump's per-destination limit — the resource-control knob of
// Section 4.1's final paragraph.
func sweepConcurrency(model search.LatencyModel, instances int, useHTTP bool) {
	fmt.Printf("Ablation: improvement vs per-destination concurrency limit (template 1, %d instances)\n\n", instances)
	fmt.Printf("%12s %14s %16s %12s\n", "limit", "sync mean (s)", "async mean (s)", "improvement")
	for _, limit := range []int{1, 2, 4, 8, 16, 32, 64} {
		env := newEnv(model, useHTTP, limit, limit, 0)
		r, err := harness.RunTemplate(context.Background(), env, 1, 1, instances)
		env.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%12d %14.2f %16.2f %11.1fx\n",
			limit, r.SyncMean.Seconds(), r.AsyncMean.Seconds(), r.Improvement)
	}
	fmt.Println("\nlimit=1 degenerates to sequential iteration; the paper's 6-20x factors")
	fmt.Println("correspond to the effective parallelism its 1999 network sustained.")
}

// sweepCaching shows the [HN96] result-cache effect on a workload with
// repeated identical calls (the Figure 7 hazard: a cross-product below a
// dependent join repeats every search |R| times).
func sweepCaching(model search.LatencyModel, instances int, useHTTP bool) {
	fmt.Println("Ablation: result cache on a repeated-call workload (Figure 7 hazard)")
	fmt.Println("query: States x R(3 rows) |x| WebCount — each state's count requested 3 times")
	q := `SELECT S.Name, R.V, Count FROM States S, Tiny R, WebCount
	      WHERE S.Name = T1 ORDER BY Count DESC`
	fmt.Printf("\n%8s %12s %18s %14s\n", "cache", "elapsed (s)", "calls registered", "calls started")
	for _, cacheSize := range []int{0, 4096} {
		env := newEnv(model, useHTTP, 0, 0, cacheSize)
		if _, err := env.DB.ExecContext(context.Background(), `CREATE TABLE Tiny (V INT)`); err != nil {
			fatal(err)
		}
		if _, err := env.DB.ExecContext(context.Background(), `INSERT INTO Tiny VALUES (1), (2), (3)`); err != nil {
			fatal(err)
		}
		env.DB.SetAsync(true)
		start := time.Now()
		if _, err := env.DB.QueryContext(context.Background(), q); err != nil {
			fatal(err)
		}
		elapsed := time.Since(start)
		st := env.DB.Pump().Stats()
		label := "off"
		if cacheSize > 0 {
			label = "on"
		}
		fmt.Printf("%8s %12.2f %18d %14d   (cache hits: %d, coalesced: %d)\n",
			label, elapsed.Seconds(), st.Registered, st.Started, st.CacheHits, st.Coalesced)
		env.Close()
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wsqbench: %v\n", err)
	os.Exit(1)
}
