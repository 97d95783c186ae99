// Package harness sets up reproducible WSQ experiment environments and
// regenerates the paper's evaluation artifacts: Table 1 (the three query
// templates, synchronous vs asynchronous, reported as mean seconds and
// improvement factor) plus ablations of the design choices the paper
// discusses (concurrency limits, result caching, ReqSync buffering).
package harness

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/exec"
	"repro/internal/search"
	"repro/internal/types"
	"repro/internal/websim"
)

// Options configures an experiment environment.
type Options struct {
	// Ctx bounds the lifetime of the environment's outbound HTTP engine
	// requests (Options.HTTP mode): cancel it to abort whatever calls are
	// still in flight at teardown. Nil leaves them bounded only by the
	// client's own timeout. It is not a per-query deadline — queries get
	// their own contexts via QueryContext.
	Ctx context.Context
	// Dir is the database directory (a temp dir from the caller).
	Dir string
	// Latency is the simulated per-request search latency.
	Latency search.LatencyModel
	// HTTP routes engine calls through real localhost HTTP servers rather
	// than in-process engines.
	HTTP bool
	// MaxConcurrentCalls / MaxCallsPerDest bound the request pump.
	MaxConcurrentCalls int
	MaxCallsPerDest    int
	// CacheSize enables the [HN96] result cache when > 0.
	CacheSize int
	// Seed offsets the latency jitter streams.
	Seed int64
	// Faults, when non-nil, wraps both engines in a seeded search.Flaky
	// fault injector drawing from the same RNG as the latency jitter.
	Faults *search.FaultModel
	// Retry configures the pump's retry/timeout/hedging policy (zero value:
	// one attempt, no deadline, no hedging).
	Retry async.RetryPolicy
	// Degrade is the default degradation policy for queries.
	Degrade exec.DegradePolicy
}

// Env is a ready-to-query experiment environment.
type Env struct {
	DB *core.DB
	// AV and Google expose concurrency statistics of the two engines.
	AV, Google *search.Delayed
	// FlakyAV and FlakyGoogle are the fault injectors wrapping the engines;
	// nil unless Options.Faults was set.
	FlakyAV, FlakyGoogle *search.Flaky

	servers []*http.Server
}

// NewEnv builds the standard experiment environment: the shared synthetic
// corpus, two latency-wrapped engines ("altavista", "google") optionally
// behind HTTP, and a database loaded with the paper's States, Sigs,
// CSFields, and Movies tables.
func NewEnv(opts Options) (*Env, error) {
	corpus := websim.Default()
	env := &Env{}
	// One seeded RNG per engine, shared by the latency wrapper and the
	// fault injector so a single seed fixes the whole stochastic schedule.
	avRng := search.NewRand(1000 + opts.Seed)
	gRng := search.NewRand(2000 + opts.Seed)
	env.AV = search.NewDelayedRand(websim.NewAltaVista(corpus), opts.Latency, avRng)
	env.Google = search.NewDelayedRand(websim.NewGoogle(corpus), opts.Latency, gRng)
	avEngine, gEngine := search.Engine(env.AV), search.Engine(env.Google)
	if opts.Faults != nil {
		env.FlakyAV = search.NewFlaky(env.AV, *opts.Faults, avRng)
		env.FlakyGoogle = search.NewFlaky(env.Google, *opts.Faults, gRng)
		avEngine, gEngine = env.FlakyAV, env.FlakyGoogle
	}

	db, err := core.Open(core.Config{
		Dir:                opts.Dir,
		Async:              true,
		MaxConcurrentCalls: opts.MaxConcurrentCalls,
		MaxCallsPerDest:    opts.MaxCallsPerDest,
		CacheSize:          opts.CacheSize,
		Retry:              opts.Retry,
		Degrade:            opts.Degrade,
	})
	if err != nil {
		return nil, err
	}
	env.DB = db

	if opts.HTTP {
		avURL, avSrv, err := serveEngine(avEngine)
		if err != nil {
			db.Close()
			return nil, err
		}
		gURL, gSrv, err := serveEngine(gEngine)
		if err != nil {
			avSrv.Close()
			db.Close()
			return nil, err
		}
		env.servers = []*http.Server{avSrv, gSrv}
		db.RegisterEngine(search.Bind(opts.Ctx, search.NewClient("altavista", avURL)), "AV")
		db.RegisterEngine(search.Bind(opts.Ctx, search.NewClient("google", gURL)), "G")
	} else {
		db.RegisterEngine(avEngine, "AV")
		db.RegisterEngine(gEngine, "G")
	}

	if err := LoadPaperTables(opts.Ctx, db); err != nil {
		env.Close()
		return nil, err
	}
	return env, nil
}

// serveEngine exposes an engine over HTTP on an ephemeral localhost port.
func serveEngine(e search.Engine) (baseURL string, srv *http.Server, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv = &http.Server{Handler: search.NewHandler(e)}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), srv, nil
}

// Close shuts the environment down.
func (e *Env) Close() {
	for _, s := range e.servers {
		s.Close()
	}
	e.DB.Close()
}

// ResetBetweenRuns clears caches and statistics so consecutive timed runs
// are independent (the paper waited two hours between identical searches
// to defeat engine-side caching; our knob is more direct).
func (e *Env) ResetBetweenRuns() {
	if c := e.DB.Cache(); c != nil {
		c.Reset()
	}
	e.DB.Pump().ResetStats()
	e.AV.ResetStats()
	e.Google.ResetStats()
	if e.FlakyAV != nil {
		e.FlakyAV.ResetStats()
	}
	if e.FlakyGoogle != nil {
		e.FlakyGoogle.ResetStats()
	}
}

// LoadPaperTables creates and fills the paper's stored tables. The DDL
// runs under ctx (nil means unbounded).
func LoadPaperTables(ctx context.Context, db *core.DB) error {
	type load struct {
		ddl  string
		name string
		rows []types.Tuple
	}
	var loads []load

	states := load{ddl: `CREATE TABLE States (Name VARCHAR, Population INT, Capital VARCHAR)`, name: "States"}
	for _, s := range datasets.States {
		states.rows = append(states.rows, types.Tuple{types.Str(s.Name), types.Int(s.Population), types.Str(s.Capital)})
	}
	loads = append(loads, states)

	sigs := load{ddl: `CREATE TABLE Sigs (Name VARCHAR)`, name: "Sigs"}
	for _, s := range datasets.Sigs {
		sigs.rows = append(sigs.rows, types.Tuple{types.Str(s)})
	}
	loads = append(loads, sigs)

	fields := load{ddl: `CREATE TABLE CSFields (Name VARCHAR)`, name: "CSFields"}
	for _, f := range datasets.CSFields {
		fields.rows = append(fields.rows, types.Tuple{types.Str(f)})
	}
	loads = append(loads, fields)

	movies := load{ddl: `CREATE TABLE Movies (Title VARCHAR)`, name: "Movies"}
	for _, m := range datasets.Movies {
		movies.rows = append(movies.rows, types.Tuple{types.Str(m)})
	}
	loads = append(loads, movies)

	for _, l := range loads {
		if _, ok := db.Catalog().Get(l.name); ok {
			continue
		}
		if _, err := db.ExecContext(ctx, l.ddl); err != nil {
			return err
		}
		t, _ := db.Catalog().Get(l.name)
		for _, r := range l.rows {
			if _, err := t.Insert(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Table 1 templates

// Template instantiates one of the paper's three Section 5 query templates
// with constants drawn from the template-constant pool.
//
// Template 1: States ⋈ WebCount with T2 = V1.
// Template 2: States ⋈ WebCount ⋈ WebPages (Rank <= 2), V1 ≠ V2.
// Template 3: Sigs ⋈ WebPages_AV ⋈ WebPages_Google (Rank <= 3), shared V1.
func Template(n int, v1, v2 string) (string, error) {
	switch n {
	case 1:
		return fmt.Sprintf(
			`SELECT Name, Count FROM States, WebCount WHERE Name = T1 AND T2 = '%s'`, v1), nil
	case 2:
		return fmt.Sprintf(
			`SELECT Name, Count, URL, Rank FROM States, WebCount, WebPages
			 WHERE Name = WebCount.T1 AND WebCount.T2 = '%s'
			   AND Name = WebPages.T1 AND WebPages.T2 = '%s' AND WebPages.Rank <= 2`, v1, v2), nil
	case 3:
		return fmt.Sprintf(
			`SELECT Name, AV.URL, G.URL FROM Sigs, WebPages_AV AV, WebPages_Google G
			 WHERE Name = AV.T1 AND Name = G.T1 AND AV.Rank <= 3 AND G.Rank <= 3
			   AND AV.T2 = '%s' AND G.T2 = '%s'`, v1, v1), nil
	default:
		return "", fmt.Errorf("unknown template %d (have 1-3)", n)
	}
}

// TemplateQueries instantiates `instances` queries of template n for the
// given run (1 or 2), drawing disjoint constants per run as the paper did
// ("for corroboration, we repeated the test with 8 new query instances").
func TemplateQueries(n, run, instances int) ([]string, error) {
	pool := datasets.TemplateConstants
	need := instances
	if n == 2 {
		need = 2 * instances // V1 != V2
	}
	offset := (run - 1) * need
	if offset+need > len(pool) {
		return nil, fmt.Errorf("template %d run %d needs %d constants; pool has %d",
			n, run, offset+need, len(pool))
	}
	var out []string
	for i := 0; i < instances; i++ {
		v1 := pool[offset+i]
		v2 := ""
		if n == 2 {
			v2 = pool[offset+instances+i]
		}
		q, err := Template(n, v1, v2)
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Timing

// TimedRun executes the queries in the given mode under ctx and returns
// the mean per-query wall time.
func TimedRun(ctx context.Context, env *Env, queries []string, async bool) (time.Duration, error) {
	env.DB.SetAsync(async)
	env.ResetBetweenRuns()
	var total time.Duration
	for _, q := range queries {
		start := time.Now()
		if _, err := env.DB.QueryContext(ctx, q); err != nil {
			return 0, fmt.Errorf("%s: %w", firstLine(q), err)
		}
		total += time.Since(start)
	}
	return total / time.Duration(len(queries)), nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// RunResult is one (template, run) row of Table 1.
type RunResult struct {
	Template    int
	Run         int
	Queries     int
	SyncMean    time.Duration
	AsyncMean   time.Duration
	Improvement float64
	// MaxConcurrency is the peak number of overlapped engine requests
	// observed during the asynchronous run.
	MaxConcurrency int
}

// RunTemplate measures one (template, run) cell pair: asynchronous first,
// then synchronous, as the paper did ("after timing all queries using
// asynchronous iteration, we ... timed all queries using the standard
// query processor").
func RunTemplate(ctx context.Context, env *Env, template, run, instances int) (RunResult, error) {
	queries, err := TemplateQueries(template, run, instances)
	if err != nil {
		return RunResult{}, err
	}
	asyncMean, err := TimedRun(ctx, env, queries, true)
	if err != nil {
		return RunResult{}, err
	}
	_, avMax := env.AV.Stats()
	_, gMax := env.Google.Stats()
	maxConc := avMax + gMax
	syncMean, err := TimedRun(ctx, env, queries, false)
	if err != nil {
		return RunResult{}, err
	}
	res := RunResult{
		Template: template, Run: run, Queries: len(queries),
		SyncMean: syncMean, AsyncMean: asyncMean,
		MaxConcurrency: maxConc,
	}
	if asyncMean > 0 {
		res.Improvement = float64(syncMean) / float64(asyncMean)
	}
	return res, nil
}

// FormatTable1 renders results in the layout of the paper's Table 1.
func FormatTable1(results []RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %14s %16s %12s\n", "", "Synchronous (s)", "Asynchronous (s)", "Improvement")
	last := 0
	for _, r := range results {
		if r.Template != last {
			fmt.Fprintf(&b, "Template %d\n", r.Template)
			last = r.Template
		}
		label := fmt.Sprintf("  Run %d (%d queries)", r.Run, r.Queries)
		fmt.Fprintf(&b, "%-28s %14.2f %16.2f %11.1fx\n",
			label, r.SyncMean.Seconds(), r.AsyncMean.Seconds(), r.Improvement)
	}
	return b.String()
}
