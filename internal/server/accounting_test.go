package server

import (
	"context"
	"net/http/httptest"
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

// metricSum adds up every sample of one family in a text exposition: the
// single sample of an unlabelled family, or all label children.
func metricSum(t *testing.T, body, family string) int64 {
	t.Helper()
	var sum float64
	found := false
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, family+" ") && !strings.HasPrefix(line, family+"{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Errorf("/metrics has no %s sample", family)
	}
	return int64(sum)
}

// TestPumpAccountingAgrees: /statusz and /metrics are two views of one
// record, so they agree on every pump counter — after asynchronous
// queries, after synchronous ones (whose calls are pump calls too), and
// across ResetStats. Engines inject 30% transient faults so the retry
// counters move in both modes.
func TestPumpAccountingAgrees(t *testing.T) {
	db, err := core.Open(core.Config{Dir: t.TempDir(), Async: true,
		Retry: async.RetryPolicy{MaxAttempts: 8, BaseBackoff: 100 * time.Microsecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	corpus := websim.Default()
	avRng, gRng := search.NewRand(41), search.NewRand(42)
	faults := search.TransientOnly(0.3)
	db.RegisterEngine(search.NewFlaky(search.NewDelayedRand(websim.NewAltaVista(corpus), search.ZeroLatency(), avRng), faults, avRng), "AV")
	db.RegisterEngine(search.NewFlaky(search.NewDelayedRand(websim.NewGoogle(corpus), search.ZeroLatency(), gRng), faults, gRng), "G")
	if err := harness.LoadPaperTables(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(New(db, Options{}))
	t.Cleanup(hs.Close)
	cl := NewClient(hs.URL)

	families := []struct {
		field  string
		get    func(PumpStats) int64
		family string
	}{
		{"registered", func(p PumpStats) int64 { return p.Registered }, "wsq_pump_calls_registered_total"},
		{"started", func(p PumpStats) int64 { return p.Started }, "wsq_pump_calls_started_total"},
		{"completed", func(p PumpStats) int64 { return p.Completed }, "wsq_pump_calls_completed_total"},
		{"cache_hits", func(p PumpStats) int64 { return p.CacheHits }, "wsq_pump_cache_hits_total"},
		{"peer_hits", func(p PumpStats) int64 { return p.PeerHits }, "wsq_pump_peer_hits_total"},
		{"coalesced", func(p PumpStats) int64 { return p.Coalesced }, "wsq_pump_coalesced_total"},
		{"canceled", func(p PumpStats) int64 { return p.Canceled }, "wsq_pump_calls_canceled_total"},
		{"retries", func(p PumpStats) int64 { return p.Retries }, "wsq_pump_retries_total"},
		{"hedges", func(p PumpStats) int64 { return p.Hedges }, "wsq_pump_hedges_total"},
		{"hedge_wins", func(p PumpStats) int64 { return p.HedgeWins }, "wsq_pump_hedge_wins_total"},
		{"call_timeouts", func(p PumpStats) int64 { return p.CallTimeouts }, "wsq_pump_call_timeouts_total"},
		{"calls_failed", func(p PumpStats) int64 { return p.CallsFailed }, "wsq_pump_calls_failed_total"},
		{"max_active", func(p PumpStats) int64 { return int64(p.MaxActive) }, "wsq_pump_max_active"},
	}
	// check compares the two surfaces and returns the /statusz view.
	check := func(step string) PumpStats {
		t.Helper()
		db.Pump().Quiesce()
		st, err := cl.Status(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		_, body := httpGet(t, hs.URL+"/metrics")
		if problems := obs.LintExposition(body); len(problems) != 0 {
			t.Errorf("%s: /metrics not lint-clean:\n%s", step, strings.Join(problems, "\n"))
		}
		for _, f := range families {
			if status, metric := f.get(st.Pump), metricSum(t, body, f.family); status != metric {
				t.Errorf("%s: /statusz pump.%s = %d but /metrics %s = %d", step, f.field, status, f.family, metric)
			}
		}
		return st.Pump
	}
	run := func(asyncMode bool) {
		t.Helper()
		db.SetAsync(asyncMode)
		res, err := cl.Query(context.Background(), template1Query, 5*time.Second)
		if err != nil {
			t.Fatalf("%v (%s)", err, pumpState(db.Pump()))
		}
		if res.ExternalCalls != 50 {
			t.Fatalf("Template 1 issued %d calls, want 50", res.ExternalCalls)
		}
	}

	run(true)
	afterAsync := check("async")
	if afterAsync.Retries == 0 || afterAsync.Started != 50 {
		t.Errorf("async run: %d retries, %d started; want retries under 30%% faults and 50 executions", afterAsync.Retries, afterAsync.Started)
	}
	run(false)
	if afterSync := check("sync"); afterSync.Retries <= afterAsync.Retries || afterSync.Registered != afterAsync.Registered+50 {
		t.Errorf("sync run: retries %d -> %d, registered %d -> %d; want more retries and 50 more pump registrations",
			afterAsync.Retries, afterSync.Retries, afterAsync.Registered, afterSync.Registered)
	}

	db.Pump().ResetStats()
	if zero := check("reset"); zero != (PumpStats{}) {
		t.Errorf("after ResetStats /statusz pump = %+v, want all zero", zero)
	}
	run(false)
	check("sync after reset")
	run(true)
	if again := check("async after reset"); again.Registered != 100 {
		t.Errorf("sync and async runs after reset registered %d calls, want 100", again.Registered)
	}
}
