package harness

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/search"
)

func newTestEnv(t *testing.T, opts Options) *Env {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	env, err := NewEnv(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.Close)
	return env
}

func TestEnvLoadsPaperTables(t *testing.T) {
	env := newTestEnv(t, Options{Latency: search.ZeroLatency()})
	for table, want := range map[string]int{"States": 50, "Sigs": 37, "CSFields": 15, "Movies": 25} {
		res, err := env.DB.QueryContext(context.Background(), `SELECT COUNT(*) FROM `+table)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := res.Rows[0][0].AsInt(); int(n) != want {
			t.Errorf("%s: %d rows, want %d", table, n, want)
		}
	}
}

func TestTemplateInstantiation(t *testing.T) {
	for n := 1; n <= 3; n++ {
		qs, err := TemplateQueries(n, 1, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(qs) != 8 {
			t.Fatalf("template %d: %d queries", n, len(qs))
		}
		// All instances distinct.
		seen := make(map[string]bool)
		for _, q := range qs {
			if seen[q] {
				t.Errorf("template %d: duplicate instance", n)
			}
			seen[q] = true
		}
		// Run 2 uses disjoint constants.
		qs2, err := TemplateQueries(n, 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs2 {
			if seen[q] {
				t.Errorf("template %d: run 2 reuses run 1 constants", n)
			}
		}
	}
	// Template 2 uses V1 != V2.
	qs, _ := TemplateQueries(2, 1, 4)
	for _, q := range qs {
		parts := strings.Split(q, "'")
		if len(parts) < 4 || parts[1] == parts[3] {
			t.Errorf("template 2 constants must differ: %s", q)
		}
	}
	if _, err := Template(4, "", ""); err == nil {
		t.Error("unknown template")
	}
	if _, err := TemplateQueries(2, 2, 100); err == nil {
		t.Error("pool exhaustion should error")
	}
}

func TestTemplateQueriesExecute(t *testing.T) {
	env := newTestEnv(t, Options{Latency: search.ZeroLatency()})
	for n := 1; n <= 3; n++ {
		qs, _ := TemplateQueries(n, 1, 1)
		env.DB.SetAsync(true)
		res, err := env.DB.QueryContext(context.Background(), qs[0])
		if err != nil {
			t.Fatalf("template %d: %v", n, err)
		}
		if len(res.Rows) == 0 {
			t.Errorf("template %d returned no rows", n)
		}
	}
}

func TestRunTemplateImprovement(t *testing.T) {
	env := newTestEnv(t, Options{
		Latency: search.LatencyModel{Base: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, CountFactor: 0.8},
	})
	r, err := RunTemplate(context.Background(), env, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.SyncMean <= r.AsyncMean {
		t.Errorf("async (%v) should beat sync (%v)", r.AsyncMean, r.SyncMean)
	}
	if r.Improvement < 3 {
		t.Errorf("improvement %.1fx too small for a latency-dominated workload", r.Improvement)
	}
	if r.MaxConcurrency < 8 {
		t.Errorf("async run should overlap many calls: %d", r.MaxConcurrency)
	}
}

func TestFormatTable1(t *testing.T) {
	results := []RunResult{
		{Template: 1, Run: 1, Queries: 8, SyncMean: 23130 * time.Millisecond, AsyncMean: 3880 * time.Millisecond, Improvement: 6.0},
		{Template: 1, Run: 2, Queries: 8, SyncMean: 32800 * time.Millisecond, AsyncMean: 3500 * time.Millisecond, Improvement: 9.4},
	}
	out := FormatTable1(results)
	for _, want := range []string{"Template 1", "Run 1", "23.13", "3.88", "6.0x"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestHTTPEnvironment routes Query 1 through the search client over real
// localhost HTTP: the altavista engine is served by an httptest server and
// registered back as a search.Client in the in-process engine's place.
func TestHTTPEnvironment(t *testing.T) {
	env := newTestEnv(t, Options{Latency: search.ZeroLatency()})
	srv := httptest.NewServer(search.NewHandler(env.AV))
	defer srv.Close()
	env.DB.RegisterEngine(search.Bind(context.Background(), search.NewClient("altavista", srv.URL)), "AV")

	res, err := env.DB.QueryContext(context.Background(), `SELECT Name, Count FROM States, WebCount WHERE Name = T1 ORDER BY Count DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 || res.Rows[0][0].AsString() != "California" {
		t.Errorf("HTTP-backed Q1: %d rows, first %v", len(res.Rows), res.Rows[:min(1, len(res.Rows))])
	}
	if requests, _ := env.AV.Stats(); requests != 50 {
		t.Errorf("server-side request count: %d, want 50", requests)
	}
}

func TestResetBetweenRuns(t *testing.T) {
	env := newTestEnv(t, Options{Latency: search.ZeroLatency(), CacheSize: 128})
	env.DB.QueryContext(context.Background(), `SELECT Count FROM WebCount WHERE T1 = 'California'`)
	env.ResetBetweenRuns()
	if reg := env.DB.Pump().Stats().Registered; reg != 0 {
		t.Error("pump stats not reset")
	}
	if c := env.DB.Cache(); c != nil && c.Len() != 0 {
		t.Error("cache not reset")
	}
}
