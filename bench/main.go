// Command bench is the repository's benchmark: six seeded workloads run
// through the layers' public functions, every answer verified against the
// paper's baseline executor, end-to-end metrics from an untraced run and
// per-layer metrics from a separate traced run that times each layer from
// outside. README.md in this directory explains the workloads, the
// metrics and the noise protocol; BENCHMARK.json at the repository root
// declares them.
//
// It is run from the repository root through bench/run.sh:
//
//	bash bench/run.sh --workload t2_wave --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all            # every workload, untraced
//	bash bench/run.sh --workload all --trace 1  # every workload, per-layer
//	bash bench/run.sh --aa                      # A/A self-check against the bounds
//
// The last line of standard output is one JSON object per workload with
// the keys correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the object printed as the last line of a workload's output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings shared by every mode.
type options struct {
	seed    int64
	timed   time.Duration // length of the timed phase
	slices  int
	setups  int // times set-up is repeated; setup_s is their median
	outDir  string
	verbose bool
}

func main() {
	var (
		opt      options
		seconds  = flag.Int("seconds", 10, "length of the timed phase")
		workload = flag.String("workload", "all", "workload name, or all: "+strings.Join(specNames(), ", "))
		trace    = flag.Int("trace", 0, "0 = untraced run, end-to-end metrics; 1 = traced run, per-layer metrics")
		aa       = flag.Bool("aa", false, "run the untraced set twice and compare every end-to-end metric with its bound in BENCHMARK.json")
	)
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed: which constants, in what order, and the generated tables")
	flag.IntVar(&opt.slices, "slices", 20, "equal slices the timed phase is cut into; the fastest quarter is reported")
	flag.StringVar(&opt.outDir, "out", "bench/out", "directory for span files and temporary databases")
	flag.BoolVar(&opt.verbose, "v", false, "also print each slice")
	flag.Parse()
	opt.timed = time.Duration(*seconds) * time.Second
	opt.setups = 5

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, opt, *workload, *trace == 1, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, opt options, workload string, traced, aa bool) error {
	if opt.timed <= 0 || opt.slices < 1 || opt.setups < 1 {
		return errors.New("-seconds and -slices must be at least 1")
	}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}
	if aa {
		return selfCheck(ctx, opt, "BENCHMARK.json")
	}
	var todo []*spec
	if workload == "all" {
		todo = specs
	} else if sp, ok := specByName(workload); ok {
		todo = []*spec{sp}
	} else {
		return fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(specNames(), ", "))
	}
	bad := false
	for _, sp := range todo {
		measure := untracedRun
		if traced {
			measure = tracedRun
		}
		rep, err := measure(ctx, opt, sp)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		if err := printReport(sp.name, rep); err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		bad = bad || !rep.Correct
	}
	if bad {
		return errors.New("a workload produced wrong or failed answers")
	}
	return nil
}

// clientsFor sizes the closed loop to the machine: CPU-bound workloads
// keep every CPU busy, latency workloads use one caller.
func clientsFor(sp *spec) int {
	if sp.perCPU {
		return runtime.NumCPU()
	}
	return 1
}

// timedSetUp sets the workload up opt.setups times, keeps the last
// fixture and returns the median set-up time.
func timedSetUp(ctx context.Context, opt options, sp *spec) (*fixture, float64, error) {
	var fx *fixture
	var times []float64
	for i := 0; i < opt.setups; i++ {
		if fx != nil {
			if err := fx.close(); err != nil {
				return nil, 0, err
			}
		}
		start := time.Now()
		var err error
		if fx, err = setUp(ctx, sp, opt.seed, opt.outDir); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return fx, median(times), nil
}

// warmUp runs at least one untimed pass over the query set per client,
// and at least a quarter second, so lazy initialisation (connection
// pools, the runtime's heap size) settles before timing. It first
// collects set-up's garbage (the corpus, about 80 MB): left alone it sets
// the collector's first heap goal, and the early slices would run with
// fewer collections than the late ones.
func warmUp(ctx context.Context, fx *fixture, clients int) {
	runtime.GC()
	until := time.Now().Add(250 * time.Millisecond)
	for pass := 0; pass < clients || time.Now().Before(until); pass++ {
		for _, q := range fx.queries {
			if ctx.Err() != nil {
				return
			}
			_, _ = fx.query(ctx, q) // untimed and unchecked: the timed phase checks every answer
		}
	}
}

// untracedRun measures a workload's end-to-end metrics.
func untracedRun(ctx context.Context, opt options, sp *spec) (rep report, err error) {
	fx, setupS, err := timedSetUp(ctx, opt, sp)
	if err != nil {
		return report{}, err
	}
	defer func() { err = errors.Join(err, fx.close()) }()

	clients := clientsFor(sp)
	warmUp(ctx, fx, clients)
	res := drive(ctx, fx, clients, opt.timed, opt.slices)
	if err := ctx.Err(); err != nil {
		return report{}, err
	}

	// The counts and CPU per query are per-layer metrics (the traced run
	// puts them in its JSON); they are printed here too because they cost
	// nothing and are what one looks at first.
	calls := float64(res.engineCalls) / float64(res.attempted)
	fmt.Printf("%s: %d clients, %d queries timed in %.1f s (%d slices), %d failed; engine calls/query %g (want %d), peak in flight %d, cpu %.4f ms/query\n",
		sp.name, clients, res.attempted, res.seconds, len(res.slices), res.failed, calls, sp.callsPerQuery, res.peak, res.cpuMSPerQuery())
	if opt.verbose {
		for i, s := range res.slices {
			fmt.Printf("  slice %2d: %6d queries in %.3f s, %.1f q/s, %.4f cpu ms/query, p50 %.4f ms, p95 %.4f ms\n",
				i, s.queries, s.seconds, s.rate(), ms(s.cpu)/float64(max(s.queries, 1)), percentile(s.ms, 0.5), percentile(s.ms, 0.95))
		}
	}
	return report{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics: map[string]metric{
			"query_ms_p50":  {res.queryMS(0.50), "ms"},
			"query_ms_p95":  {res.queryMS(0.95), "ms"},
			"queries_per_s": {res.queriesPerS(), "1/s"},
			"setup_s":       {setupS, "s"},
		},
	}, nil
}

// printReport prints the metrics by name with units, then the one-line
// JSON object the driver reads.
func printReport(name string, rep report) error {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("  %-34s %14.6g %-6s (%s, %d samples)\n", n, m.Value, m.Unit, name, rep.Attempted)
	}
	line, err := json.Marshal(rep) // fails only on a NaN or Inf value
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
