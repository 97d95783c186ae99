package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/async"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/websim"
)

// maskExposition blanks the sample values no two runs share: histogram
// bucket counts and sums (they depend on timing) and the server's uptime.
// Names, HELP and TYPE lines, label sets and every other value stay.
func maskExposition(body string) string {
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if j := strings.IndexAny(line, "{ "); j >= 0 {
			name = line[:j]
		}
		if strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") || name == "wsq_server_uptime_seconds" {
			lines[i] = line[:strings.LastIndexByte(line, ' ')] + " _"
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// seriesSum adds up the samples whose line starts with prefix.
func seriesSum(t *testing.T, body, prefix string) int64 {
	t.Helper()
	var sum int64
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		v, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// TestMetricsGolden pins the whole /metrics page of a wsqd stack — two
// engines, one of them injecting faults, a result cache, and a server
// that has answered cached, retried and failed queries — against
// testdata/metrics.golden, timing-dependent values masked. Every query
// issues at most one engine call, so the fault schedule each engine draws
// from its seeded stream, and with it every count, is the same on every
// run. The engine wrappers' own Stats must match the page's sums.
func TestMetricsGolden(t *testing.T) {
	db, err := core.Open(core.Config{Dir: t.TempDir(), Async: true, CacheSize: 16,
		Retry: async.RetryPolicy{MaxAttempts: 8, BaseBackoff: 100 * time.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	corpus := websim.Default()
	av := search.NewDelayed(websim.NewAltaVista(corpus), search.ZeroLatency(), 1)
	gRng := search.NewRand(7)
	g := search.NewDelayedRand(websim.NewGoogle(corpus), search.ZeroLatency(), gRng)
	faults := search.UniformFaults(search.FaultProfile{Transient: 0.3, Stall: 0.2, SlowTail: 0.2})
	faults.StallFor, faults.SlowBy = 0, 0
	gFlaky := search.NewFlaky(g, faults, gRng)
	db.RegisterEngine(av, "AV")
	db.RegisterEngine(gFlaky, "G")
	if err := harness.LoadPaperTables(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(New(db, Options{}))
	t.Cleanup(hs.Close)
	cl := NewClient(hs.URL)

	for _, q := range []string{
		`SELECT Count FROM WebCount_AV WHERE T1 = 'scuba diving'`,
		`SELECT Count FROM WebCount_AV WHERE T1 = 'scuba diving'`, // a cache hit
		`SELECT Count FROM WebCount_G WHERE T1 = 'computer'`,
		`SELECT Count FROM WebCount_G WHERE T1 = 'four corners'`,
		`SELECT Count FROM WebCount_G WHERE T1 = 'scuba diving'`,
		`SELECT URL, Rank FROM WebPages_G WHERE T1 = 'four corners' AND Rank <= 2`,
		`SELECT URL, Rank FROM WebPages_AV WHERE T1 = 'computer' AND Rank <= 2`,
	} {
		if _, err := cl.Query(context.Background(), q, 5*time.Second); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if _, err := cl.Query(context.Background(), `SELECT Nope FROM States`, 0); err == nil {
		t.Fatal("a query naming no column succeeded")
	}
	db.Pump().Quiesce()

	_, body := httpGet(t, hs.URL+"/metrics")
	if problems := obs.LintExposition(body); len(problems) != 0 {
		t.Errorf("/metrics not lint-clean:\n%s", strings.Join(problems, "\n"))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := maskExposition(body); got != string(want) {
		t.Errorf("/metrics differs from testdata/metrics.golden; got:\n%s", got)
	}

	for _, e := range []struct {
		name string
		d    *search.Delayed
	}{{"altavista", av}, {"google", g}} {
		requests, _ := e.d.Stats()
		if sum := seriesSum(t, body, fmt.Sprintf(`wsq_engine_requests_total{engine=%q,`, e.name)); sum != requests {
			t.Errorf("%s: Delayed.Stats requests = %d, /metrics wsq_engine_requests_total sums to %d", e.name, requests, sum)
		}
	}
	fs := gFlaky.Stats()
	for _, k := range []struct {
		kind string
		n    int64
	}{{"transient", fs.Transient}, {"stall", fs.Stalls}, {"slowtail", fs.SlowTails}} {
		if sum := seriesSum(t, body, fmt.Sprintf(`wsq_engine_faults_total{engine="google",kind=%q}`, k.kind)); sum != k.n {
			t.Errorf("Flaky.Stats %s = %d, /metrics wsq_engine_faults_total sums to %d", k.kind, k.n, sum)
		}
	}
	if fs.RateLimit != 0 || fs.Hard != 0 {
		t.Errorf("Flaky.Stats = %+v: injected a kind its model gives no probability", fs)
	}
}
