// Command wsqbench regenerates the paper's evaluation (Table 1): it times
// the three query templates with and without asynchronous iteration and
// reports mean seconds plus the improvement factor. The ablations of
// EXPERIMENTS.md are testing.B functions in the root bench_test.go; the
// serving stack is measured by the ledger (bench/README.md).
//
// Usage:
//
//	wsqbench                          # full Table 1, bench latency (~25 ms)
//	wsqbench -paper                   # paper latency (~750 ms) — slow, faithful
//	wsqbench -template 2 -runs 1      # one cell
//	wsqbench -http                    # engine calls over localhost HTTP
//	wsqbench -flaky 0.3               # 30% transient faults, masked by retries
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/async"
	"repro/internal/harness"
	"repro/internal/search"
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
	flaky := flag.Float64("flaky", 0, "inject transient faults with this probability (adds retry masking)")
	flag.Parse()

	model := search.BenchLatency()
	if *paper {
		model = search.PaperLatency()
	}
	if *latency > 0 {
		model = search.LatencyModel{Base: *latency, Jitter: *latency / 2, CountFactor: 0.8}
	}
	table1(model, *template, *runs, *instances, *useHTTP, *maxTotal, *maxDest, *flaky)
}

// newEnv builds the experiment environment; with faultProb set it gets a
// seeded transient-fault injector plus a retry policy that masks it.
func newEnv(model search.LatencyModel, useHTTP bool, maxTotal, maxDest int, faultProb float64) *harness.Env {
	dir, err := os.MkdirTemp("", "wsqbench-*")
	if err != nil {
		fatal(err)
	}
	opts := harness.Options{
		Dir: dir, Latency: model, HTTP: useHTTP,
		MaxConcurrentCalls: maxTotal, MaxCallsPerDest: maxDest,
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

func table1(model search.LatencyModel, template, runs, instances int, useHTTP bool, maxTotal, maxDest int, faultProb float64) {
	env := newEnv(model, useHTTP, maxTotal, maxDest, faultProb)
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
	if faultProb > 0 {
		st := env.DB.Pump().Stats()
		av, g := env.FlakyAV.Stats(), env.FlakyGoogle.Stats()
		fmt.Printf("\nfault injection: %.0f%% transient — injected %d faults, pump retries %d (failed calls: %d)\n",
			100*faultProb, av.Injected()+g.Injected(), st.Retries, st.CallsFailed)
	}
	fmt.Println("\nPaper (Table 1): T1 6.0x/9.4x, T2 13.5x/12.5x, T3 19.6x/16.4x — factors grow")
	fmt.Println("with template call count; absolute magnitude tracks the concurrency limit.")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wsqbench: %v\n", err)
	os.Exit(1)
}
