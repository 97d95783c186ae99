// Command wsqd is the WSQ query daemon: one shared database, many
// concurrent clients, a single global ReqPump dividing the external-call
// budget across all of them (Section 4.1's multi-user resource control).
//
// By default it runs self-contained with in-process synthetic engines and
// the paper's tables preloaded; pass -av-url/-google-url to target a
// running websearchd instead.
//
// Usage:
//
//	wsqd [-addr :8080] [-latency 25ms] [-cache 4096] [-max-queries 32]
//	     [-queue-depth 64] [-max-concurrent 64] [-max-per-dest 32]
//	     [-timeout 30s] [-allow-writes] [-db DIR]
//	     [-av-url URL -google-url URL]
//	     [-retries 4] [-retry-backoff 5ms] [-call-timeout 2s] [-hedge-after 0]
//	     [-degrade fail|drop|partial] [-flaky 0.3] [-seed 1]
//
// Tier modes (internal/shard): with -shard-config and -shard-id the
// daemon joins a sharded tier as a worker (peer cache protocol under
// /shard/*, pump peering attached); with -shard-config and -coordinator
// it runs the tier front door instead (no local database), routing
// /query by consistent-hashed search expressions and serving
// /admin/drain and /admin/reload. Both modes re-read the config on
// SIGHUP.
//
// API:
//
//	POST /query   {"sql": "...", "timeout_ms": 500}  -> columns + rows
//	GET  /query?q=SELECT...                          -> same
//	GET  /query?q=...&trace=1                        -> + per-operator span tree
//	GET  /statusz                                    -> pump/cache/latency stats
//	GET  /metrics                                    -> Prometheus text exposition
//	GET  /debug/pprof/                               -> Go profiling endpoints
//	GET  /healthz                                    -> liveness
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/websim"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	dir := flag.String("db", "", "database directory (default: a temp dir)")
	latency := flag.Duration("latency", 25*time.Millisecond, "simulated search latency (in-process engines)")
	cacheSize := flag.Int("cache", 4096, "search-result cache capacity (0 = disabled)")
	maxQueries := flag.Int("max-queries", 32, "max concurrently executing queries")
	queueDepth := flag.Int("queue-depth", 64, "max queries waiting for admission (overflow gets 503)")
	maxTotal := flag.Int("max-concurrent", 0, "pump total external-call limit (0 = default)")
	maxDest := flag.Int("max-per-dest", 0, "pump per-destination limit (0 = default)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-query deadline")
	allowWrites := flag.Bool("allow-writes", false, "permit CREATE/DROP/INSERT through /query")
	avURL := flag.String("av-url", "", "URL of a websearchd altavista endpoint (default: in-process)")
	gURL := flag.String("google-url", "", "URL of a websearchd google endpoint (default: in-process)")
	retries := flag.Int("retries", 4, "max attempts per external call (1 = no retry)")
	retryBackoff := flag.Duration("retry-backoff", 5*time.Millisecond, "base retry backoff (doubles per attempt)")
	callTimeout := flag.Duration("call-timeout", 2*time.Second, "per-attempt deadline for external calls (0 = none)")
	hedgeAfter := flag.Duration("hedge-after", 0, "launch a duplicate request after this delay (0 = off)")
	degradeFlag := flag.String("degrade", "fail", "default degradation policy when calls exhaust retries: fail|drop|partial")
	flaky := flag.Float64("flaky", 0, "inject transient faults into in-process engines with this probability")
	seed := flag.Int64("seed", 1, "seed for latency jitter and fault injection")
	requestLog := flag.String("request-log", "", "write one JSON line per /query to this file ('-' = stderr)")
	shardConfig := flag.String("shard-config", "", "tier membership JSON; enables worker or coordinator mode")
	shardID := flag.String("shard-id", "", "this worker's id in the tier config (worker mode)")
	coordinator := flag.Bool("coordinator", false, "run as the tier coordinator instead of a worker")
	traceSample := flag.Int("trace-sample", 0, "head-sample 1 in N queries for tracing (0 = only explicit ?trace=1)")
	traceSlow := flag.Duration("trace-slow", 0, "always capture a trace for queries slower than this (0 = off)")
	flag.Parse()

	if *coordinator {
		if *shardConfig == "" {
			fatal(fmt.Errorf("-coordinator requires -shard-config"))
		}
		runCoordinator(*addr, *shardConfig, *traceSample)
		return
	}
	if *shardConfig != "" && *shardID == "" {
		fatal(fmt.Errorf("-shard-config requires -shard-id (or -coordinator)"))
	}

	degrade, err := exec.ParseDegrade(*degradeFlag)
	if err != nil {
		fatal(err)
	}

	if *dir == "" {
		tmp, err := os.MkdirTemp("", "wsqd-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(tmp)
		*dir = tmp
	}

	db, err := core.Open(core.Config{
		Dir:                *dir,
		Async:              true,
		MaxConcurrentCalls: *maxTotal,
		MaxCallsPerDest:    *maxDest,
		CacheSize:          *cacheSize,
		Retry: async.RetryPolicy{
			MaxAttempts: *retries,
			BaseBackoff: *retryBackoff,
			JitterFrac:  0.5,
			CallTimeout: *callTimeout,
			HedgeAfter:  *hedgeAfter,
		},
		Degrade: degrade,
	})
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	if *avURL != "" || *gURL != "" {
		if *avURL == "" || *gURL == "" {
			fatal(fmt.Errorf("pass both -av-url and -google-url or neither"))
		}
		db.RegisterEngine(search.Bind(context.Background(), search.NewClient("altavista", *avURL)), "AV")
		db.RegisterEngine(search.Bind(context.Background(), search.NewClient("google", *gURL)), "G")
	} else {
		corpus := websim.Default()
		model := search.LatencyModel{Base: *latency, Jitter: *latency / 2, CountFactor: 0.8}
		avRng := search.NewRand(1000 + *seed)
		gRng := search.NewRand(2000 + *seed)
		av := search.Engine(search.NewDelayedRand(websim.NewAltaVista(corpus), model, avRng))
		g := search.Engine(search.NewDelayedRand(websim.NewGoogle(corpus), model, gRng))
		if *flaky > 0 {
			av = search.NewFlaky(av, search.TransientOnly(*flaky), avRng)
			g = search.NewFlaky(g, search.TransientOnly(*flaky), gRng)
			log.Printf("fault injection: %.0f%% transient faults per engine call", 100**flaky)
		}
		db.RegisterEngine(av, "AV")
		db.RegisterEngine(g, "G")
	}
	if err := harness.LoadPaperTables(context.Background(), db); err != nil {
		fatal(err)
	}

	var logW io.Writer
	switch *requestLog {
	case "":
	case "-":
		logW = os.Stderr
	default:
		f, err := os.OpenFile(*requestLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		logW = f
	}

	node := "wsqd"
	if *shardID != "" {
		node = *shardID
	}
	srv := server.New(db, server.Options{
		MaxConcurrentQueries: *maxQueries,
		MaxQueueDepth:        *queueDepth,
		DefaultTimeout:       *timeout,
		AllowWrites:          *allowWrites,
		RequestLog:           logW,
		Node:                 node,
		TraceSampleEvery:     *traceSample,
		SlowTraceThreshold:   *traceSlow,
	})

	var handler http.Handler = srv
	if *shardConfig != "" {
		cfg, err := shard.LoadConfig(*shardConfig)
		if err != nil {
			fatal(err)
		}
		if _, ok := cfg.Member(*shardID); !ok {
			fatal(fmt.Errorf("shard id %q not in %s", *shardID, *shardConfig))
		}
		peers := shard.NewPeers(*shardID, cfg, shard.PeerOptions{})
		defer peers.Close()
		db.Pump().SetCachePeer(peers)
		worker := shard.NewWorker(shard.WorkerOptions{
			ID:    *shardID,
			Inner: srv,
			Cache: db.Cache(),
			Pump:  db.Pump(),
			Peers: peers,
		})
		peers.Observe(db.Metrics())
		worker.Observe(db.Metrics())
		handler = worker
		reloadOnSIGHUP(func() {
			cfg, err := shard.LoadConfig(*shardConfig)
			if err != nil {
				log.Printf("SIGHUP reload failed: %v", err)
				return
			}
			peers.Update(cfg.Workers, cfg.VNodes)
			log.Printf("SIGHUP: reloaded %s (%d workers)", *shardConfig, len(cfg.Workers))
		})
		log.Printf("tier worker %q: peer cache protocol on /shard/*, membership from %s", *shardID, *shardConfig)
	}

	log.Printf("wsqd listening on http://%s (max-queries=%d queue-depth=%d cache=%d writes=%v)",
		*addr, *maxQueries, *queueDepth, *cacheSize, *allowWrites)
	log.Printf("observability: /metrics (Prometheus), /debug/traces, /debug/pprof/, /query?...&trace=1 (span tree)")
	log.Printf("try: curl 'http://%s/query?q=SELECT+Name,+Count+FROM+States,+WebCount+WHERE+Name+%%3D+T1+LIMIT+3'", *addr)

	// Serve until SIGINT/SIGTERM, then shut down gracefully: in-flight
	// queries finish before the process exits.
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		log.Printf("%v: shutting down", sig)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		cancel()
	}
}

// runCoordinator serves the tier front door: consistent-hash routing of
// /query across the configured workers, drain/reload admin endpoints,
// stitched tier-wide traces (/debug/traces), and its own metrics registry.
func runCoordinator(addr, configPath string, traceSample int) {
	cfg, err := shard.LoadConfig(configPath)
	if err != nil {
		fatal(err)
	}
	coord := shard.NewCoordinator(cfg, shard.CoordinatorOptions{
		ConfigPath:       configPath,
		TraceSampleEvery: traceSample,
	})
	defer coord.Close()
	reg := obs.NewRegistry()
	coord.Observe(reg)

	ctx := context.Background()
	if err := coord.Sync(ctx); err != nil {
		// Workers may come up after the coordinator; routing still works,
		// and the next reload re-pushes membership and budgets.
		log.Printf("initial tier sync incomplete (workers not all up?): %v", err)
	}
	reloadOnSIGHUP(func() {
		if err := coord.Reload(ctx); err != nil {
			log.Printf("SIGHUP reload failed: %v", err)
			return
		}
		log.Printf("SIGHUP: reloaded %s (%d live workers)", configPath, len(coord.Live()))
	})

	mux := http.NewServeMux()
	mux.Handle("/", coord.Handler())
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(rw); err != nil {
			log.Printf("metrics write: %v", err)
		}
	})
	log.Printf("wsqd coordinator listening on http://%s (%d workers from %s)", addr, len(cfg.Workers), configPath)
	log.Printf("admin: POST /admin/drain?id=W to drain a worker, POST /admin/reload (or SIGHUP) to re-read the config")
	if err := http.ListenAndServe(addr, mux); err != nil {
		fatal(err)
	}
}

// reloadOnSIGHUP invokes fn on every SIGHUP for the life of the process.
func reloadOnSIGHUP(fn func()) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGHUP)
	go func() {
		for range sigc {
			fn()
		}
	}()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wsqd: %v\n", err)
	os.Exit(1)
}
