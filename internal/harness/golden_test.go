package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/search"
)

// The golden end-to-end suite: the paper's three Table 1 query templates run
// against the deterministic websim corpus, asserting exact result sets —
// first fault-free, then under 30% injected transient faults, where retries
// must mask every fault and reproduce byte-identical results.

const goldenFaultProb = 0.3

// goldenRetry is deep enough that the residual per-call failure rate
// (0.3^12 ≈ 5e-7) is negligible across the suite's few hundred calls.
func goldenRetry() async.RetryPolicy {
	return async.RetryPolicy{
		MaxAttempts: 12,
		BaseBackoff: 100 * time.Microsecond,
		JitterFrac:  0.5,
	}
}

func goldenLatency() search.LatencyModel {
	return search.LatencyModel{Base: time.Millisecond, Jitter: 500 * time.Microsecond, CountFactor: 0.8}
}

// goldenQueries instantiates run 1 of each template, two instances each.
func goldenQueries(t *testing.T) []string {
	t.Helper()
	var out []string
	for tmpl := 1; tmpl <= 3; tmpl++ {
		qs, err := TemplateQueries(tmpl, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, qs...)
	}
	return out
}

// goldenQueryDeadline bounds one golden query. They take milliseconds; a
// query still waiting after this long is waiting for a call that will
// never run — a leaked pump slot — and must fail its test by name instead
// of hanging it to the go test timeout.
const goldenQueryDeadline = 10 * time.Second

// resultSet executes q and returns its rows formatted and sorted (the
// engine's row order for unordered queries is not part of the contract).
func resultSet(t *testing.T, env *Env, q string) []string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), goldenQueryDeadline)
	defer cancel()
	res, err := env.DB.QueryContext(ctx, q)
	if err != nil {
		running, queued := env.DB.Pump().Active()
		t.Fatalf("%s: %v (pump: running=%d queued=%d held=%d)", q, err, running, queued, env.DB.Pump().Held())
	}
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		rows[i] = strings.Join(parts, "|")
	}
	sort.Strings(rows)
	return rows
}

func digest(rows []string) string {
	h := sha256.New()
	for _, r := range rows {
		fmt.Fprintln(h, r)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func collectAll(t *testing.T, env *Env, queries []string) [][]string {
	t.Helper()
	out := make([][]string, len(queries))
	for i, q := range queries {
		out[i] = resultSet(t, env, q)
	}
	return out
}

// goldenDigests pins the exact result sets of the six golden queries
// (template 1, 2, 3 × two instances, sorted rows, 16-hex-char SHA-256).
// They change only if websim's corpus or the templates change.
var goldenDigests = []string{
	"4d526bf328486f38", // template 1, instance 1 (50 rows)
	"9731a3745d3716c2", // template 1, instance 2 (50 rows)
	"8ca04d5441649b52", // template 2, instance 1 (100 rows)
	"476874881c2315ba", // template 2, instance 2 (100 rows)
	"8fdba8416c344500", // template 3, instance 1 (333 rows)
	"27d7f3b7501e5f4d", // template 3, instance 2 (333 rows)
}

func TestGoldenTable1ResultSets(t *testing.T) {
	env, err := NewEnv(Options{Dir: t.TempDir(), Latency: goldenLatency(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	queries := goldenQueries(t)
	results := collectAll(t, env, queries)
	for i, rows := range results {
		if len(rows) == 0 {
			t.Errorf("query %d returned no rows: %s", i, queries[i])
		}
		if d := digest(rows); d != goldenDigests[i] {
			t.Errorf("query %d digest = %q, want %q (%d rows)\nquery: %s",
				i, d, goldenDigests[i], len(rows), queries[i])
		}
	}
}

// TestGoldenTable1BatchSizes sweeps the vectorized executor's batch size
// across the degenerate (1), misaligned (3), and wide (256) settings:
// batch boundaries must never change the result set, so every setting
// must reproduce the pinned golden digests exactly.
func TestGoldenTable1BatchSizes(t *testing.T) {
	env, err := NewEnv(Options{Dir: t.TempDir(), Latency: goldenLatency(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	queries := goldenQueries(t)
	for _, bs := range []int{1, 3, 256} {
		for i, q := range queries {
			res, err := env.DB.QueryContextOpts(context.Background(), q, core.QueryOptions{BatchSize: bs})
			if err != nil {
				t.Fatalf("batch %d query %d: %v\nquery: %s", bs, i, err, q)
			}
			rows := make([]string, len(res.Rows))
			for ri, r := range res.Rows {
				parts := make([]string, len(r))
				for j, v := range r {
					parts[j] = v.String()
				}
				rows[ri] = strings.Join(parts, "|")
			}
			sort.Strings(rows)
			if d := digest(rows); d != goldenDigests[i] {
				t.Errorf("batch %d query %d digest = %q, want %q (%d rows)\nquery: %s",
					bs, i, d, goldenDigests[i], len(rows), q)
			}
		}
	}
}

// TestGoldenResultsUnchangedUnderTransientFaults is the tentpole's
// end-to-end claim: with 30%% of engine calls failing transiently, retries
// inside the pump mask every fault and the result sets are identical to the
// fault-free run.
func TestGoldenResultsUnchangedUnderTransientFaults(t *testing.T) {
	queries := goldenQueries(t)

	clean, err := NewEnv(Options{Dir: t.TempDir(), Latency: goldenLatency(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	want := collectAll(t, clean, queries)

	faults := search.TransientOnly(goldenFaultProb)
	flaky, err := NewEnv(Options{
		Dir: t.TempDir(), Latency: goldenLatency(), Seed: 7,
		Faults: &faults, Retry: goldenRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer flaky.Close()
	got := collectAll(t, flaky, queries)

	for i := range queries {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("query %d: results diverge under transient faults\nquery: %s\nclean: %d rows (%s)\nflaky: %d rows (%s)",
				i, queries[i], len(want[i]), digest(want[i]), len(got[i]), digest(got[i]))
		}
	}

	av, g := flaky.FlakyAV.Stats(), flaky.FlakyGoogle.Stats()
	if av.Injected()+g.Injected() == 0 {
		t.Fatal("fault injector never fired; the test proves nothing")
	}
	ps := flaky.DB.Pump().Stats()
	if ps.Retries == 0 {
		t.Error("no pump retries recorded despite injected faults")
	}
	if ps.CallsFailed != 0 {
		t.Errorf("CallsFailed = %d; transient faults leaked past the retry budget", ps.CallsFailed)
	}
}

// TestGoldenFaultScheduleReproducible: the same seed yields the same fault
// schedule (and therefore the same injected-fault counts) across runs.
func TestGoldenFaultScheduleReproducible(t *testing.T) {
	queries := goldenQueries(t)
	run := func() (search.FlakyStats, search.FlakyStats, [][]string) {
		faults := search.TransientOnly(goldenFaultProb)
		// One call at a time: concurrent calls would consume the shared RNG
		// in scheduler order, which is not part of the determinism contract.
		env, err := NewEnv(Options{
			Dir: t.TempDir(), Latency: goldenLatency(), Seed: 21,
			MaxConcurrentCalls: 1, MaxCallsPerDest: 1,
			Faults: &faults, Retry: goldenRetry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		rows := collectAll(t, env, queries)
		return env.FlakyAV.Stats(), env.FlakyGoogle.Stats(), rows
	}
	av1, g1, rows1 := run()
	av2, g2, rows2 := run()
	if !reflect.DeepEqual(rows1, rows2) {
		t.Error("result sets differ between identically seeded runs")
	}
	if av1 != av2 || g1 != g2 {
		t.Errorf("fault schedules differ between identically seeded runs:\nAV %+v vs %+v\nG  %+v vs %+v", av1, av2, g1, g2)
	}
}
