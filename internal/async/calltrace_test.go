package async

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/types"
)

func tracedCtx() context.Context {
	return obs.WithTrace(context.Background(), obs.NewTraceCtx())
}

// TestCallTraceLifecycle: a sampled registration produces a trace record
// that converts to a pump.call span with one attempt child and the queue
// wait; the record hangs off the call record, so it is reachable while the
// call is held and gone with it.
func TestCallTraceLifecycle(t *testing.T) {
	// One slot, held by an untraced call, so the traced call measurably
	// queues: a zero queue_us is omitted from the extras like any zero.
	p := NewPump(1, 1, nil)
	defer p.Close()
	ctx := tracedCtx()

	p.RegisterCtx(context.Background(), "altavista", "k0", func() ([]types.Tuple, error) {
		time.Sleep(2 * time.Millisecond)
		return nil, nil
	})
	id := p.RegisterCtx(ctx, "altavista", "k1", func() ([]types.Tuple, error) {
		time.Sleep(2 * time.Millisecond)
		return []types.Tuple{{types.Int(1)}}, nil
	})
	ct := p.CallTrace(id)
	if ct == nil {
		t.Fatal("CallTrace returned no record for a held, sampled call")
	}
	if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true}); err != nil {
		t.Fatal(err)
	}
	p.Take(id)

	sp := ct.Span()
	if sp.Op != "pump.call" || sp.Detail != "altavista" {
		t.Errorf("span = %s %q, want pump.call altavista (ok outcome omitted)", sp.Op, sp.Detail)
	}
	if len(sp.Children) != 1 || sp.Children[0].Op != "pump.attempt" {
		t.Fatalf("span children = %+v, want one pump.attempt", sp.Children)
	}
	if sp.Children[0].Dur < 2*time.Millisecond {
		t.Errorf("attempt dur = %v, want >= 2ms", sp.Children[0].Dur)
	}
	if _, ok := sp.Extra["queue_us"]; !ok {
		t.Errorf("span extras missing queue_us: %+v", sp.Extra)
	}

	if again := p.CallTrace(id); again != nil {
		t.Errorf("CallTrace still returns a record after Take")
	}
}

// TestCallTraceOutcomes: cache hits, errors, and discarded queued calls
// carry their outcome in the span detail. (The cache hit is one registered
// through RegisterCtx, which parks a finished call. A scan's hit is
// answered by Request, has no call record and so no span; see
// TestTracedHitsAreCountedNotSpanned.)
func TestCallTraceOutcomes(t *testing.T) {
	cache := &countingCache{m: map[string][]types.Tuple{
		"warm": {{types.Int(7)}},
	}}
	p := NewPump(4, 4, cache)
	defer p.Close()
	ctx := tracedCtx()

	hit := p.RegisterCtx(ctx, "altavista", "warm", nil)
	if ct := p.CallTrace(hit); ct == nil || ct.Span().Detail != "altavista cache_hit" {
		t.Fatalf("cache hit trace: %+v", ct)
	}
	p.Take(hit)

	boom := p.RegisterCtx(ctx, "lycos", "kaboom", func() ([]types.Tuple, error) {
		return nil, fmt.Errorf("engine down")
	})
	ct := p.CallTrace(boom)
	if ct == nil {
		t.Fatal("no trace for failed call")
	}
	if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{boom: true}); err != nil {
		t.Fatal(err)
	}
	p.Take(boom)
	sp := ct.Span()
	if sp.Detail != "lycos error" {
		t.Errorf("failed call detail = %q, want \"lycos error\"", sp.Detail)
	}
	if len(sp.Children) == 0 || sp.Children[0].Detail != "failed" {
		t.Errorf("failed attempt not marked: %+v", sp.Children)
	}

	// A call discarded while still queued, by its only owner, never runs:
	// its record ends "canceled" at the discard instead of staying open and
	// being clocked at collection time as if in flight.
	p.SetDestLimit("parked", 0)
	queued := p.RegisterCtx(ctx, "parked", "never", func() ([]types.Tuple, error) { return nil, nil })
	ct = p.CallTrace(queued)
	p.Discard(queued)
	sp = ct.Span()
	if sp.Detail != "parked canceled" {
		t.Errorf("discarded queued call detail = %q, want \"parked canceled\"", sp.Detail)
	}
	time.Sleep(2 * time.Millisecond)
	if again := ct.Span(); again.Dur != sp.Dur {
		t.Errorf("discarded call's span still growing: %v then %v", sp.Dur, again.Dur)
	}
}

// TestTracedHitsAreCountedNotSpanned: a sampled query's cache hits show up
// as the scan's cache_hits counter; they never had a lifecycle — no queue,
// no attempt, no settlement — so, unlike a call registered through
// RegisterCtx (TestCallTraceOutcomes), they carry no pump.call span.
func TestTracedHitsAreCountedNotSpanned(t *testing.T) {
	pump := NewPump(0, 0, &countingCache{m: make(map[string][]types.Tuple)})
	defer pump.Close()
	src := countSource("WC", "d")
	terms := []string{"a", "b", "a"}
	for _, want := range []struct{ spans, hits int64 }{
		{spans: 2, hits: 0}, // cold: a and b registered, the second a shares a's call
		{spans: 0, hits: 3}, // warm: every binding answered from the cache
	} {
		rs, _ := buildCountPlan(terms, src, pump)
		op, span := exec.Instrument(rs)
		ectx := exec.NewContextWith(obs.WithTrace(context.Background(), obs.NewTraceCtx()))
		if _, err := exec.Run(ectx, op); err != nil {
			t.Fatal(err)
		}
		scan := span.Children[0].Children[1]
		if scan.Op != "AEVScan" {
			t.Fatalf("span tree: %s where the AEVScan should be", scan.Op)
		}
		var spans int64
		for _, c := range scan.AsyncChildren {
			if c.Op == "pump.call" {
				spans++
			}
		}
		if hits := scan.Extra["cache_hits"]; spans != want.spans || hits != want.hits || scan.Extra["calls"] != 3 {
			t.Errorf("pump.call spans %d, cache_hits %d, calls %d; want %d, %d, 3",
				spans, hits, scan.Extra["calls"], want.spans, want.hits)
		}
	}
}

// TestCallTracePeerFetch: the ask a traced call makes of its key's home
// worker hangs under that call's span, before any engine attempt the
// home's refusal led to.
func TestCallTracePeerFetch(t *testing.T) {
	p := NewPump(4, 4, &countingCache{m: make(map[string][]types.Tuple)})
	defer p.Close()
	p.SetCachePeer(&peerStub{rows: map[string][]types.Tuple{"remote": {{types.Int(9)}}}})
	ctx := tracedCtx()
	for _, tc := range []struct{ key, detail, child string }{
		{"remote", "altavista peer_hit", ""},
		{"local", "altavista", "pump.attempt"},
	} {
		id, _, _ := p.Request(ctx, fnSource{dest: "altavista", fn: func() ([]types.Tuple, error) { return nil, nil }}, tc.key)
		ct := p.CallTrace(id)
		if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true}); err != nil {
			t.Fatal(err)
		}
		p.Take(id)
		sp := ct.Span()
		var ops []string
		for _, c := range sp.Children {
			ops = append(ops, c.Op)
		}
		want := "shard.peer.fetch"
		if tc.child != "" {
			want += " " + tc.child
		}
		if sp.Detail != tc.detail || strings.Join(ops, " ") != want {
			t.Errorf("%s: span %q children %v, want %q [%s]", tc.key, sp.Detail, ops, tc.detail, want)
		}
	}
}

// TestCallTraceUntracedOff: without a sampled trace context the pump
// records nothing — the tracing-off hot path stays bare.
func TestCallTraceUntracedOff(t *testing.T) {
	p := NewPump(4, 4, nil)
	defer p.Close()
	id := p.RegisterCtx(context.Background(), "d", "k", func() ([]types.Tuple, error) { return nil, nil })
	if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true}); err != nil {
		t.Fatal(err)
	}
	if ct := p.CallTrace(id); ct != nil {
		t.Errorf("untraced call produced a trace record")
	}
	p.Take(id)
}

// TestPumpDestProfiles: the destination records, read the way /metrics
// reads them (Pump.Observe), attribute a scripted run to the destination
// that incurred it — every physical execution's latency, retries, hedges,
// timeouts, peer hits and final failures — independent of tracing, and
// each family's sum over destinations is what Stats reports.
func TestPumpDestProfiles(t *testing.T) {
	cache := &countingCache{m: map[string][]types.Tuple{"warm": {{types.Int(7)}}}}
	p := NewPump(4, 4, cache)
	defer p.Close()
	p.SetCachePeer(&peerStub{rows: map[string][]types.Tuple{"remote": {{types.Int(9)}}}})
	run := func(dest, key string, fn func() ([]types.Tuple, error)) {
		t.Helper()
		id := p.RegisterCtx(context.Background(), dest, key, fn)
		if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true}); err != nil {
			t.Fatal(err)
		}
		p.Take(id)
	}

	run("altavista", "k1", func() ([]types.Tuple, error) { return []types.Tuple{{types.Int(1)}}, nil })
	run("altavista", "k2", func() ([]types.Tuple, error) { return nil, fmt.Errorf("down") })
	run("altavista", "warm", nil) // cache hit
	// A peer hit: only a scan's call is asked of a peer.
	if _, _, _, err := p.CallWithRetry(context.Background(), fnSource{dest: "altavista"}, "remote"); err != nil {
		t.Fatal(err)
	}

	// One transient failure then success: two executions, one retry.
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 3})
	attempts := 0
	run("lycos", "flaky", func() ([]types.Tuple, error) {
		if attempts++; attempts == 1 {
			return nil, transientErr{"hiccup"}
		}
		return nil, nil
	})

	// A slow first execution, hedged after 1 ms; the hedge answers first,
	// and both executions are timed once the straggler lets go.
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 1, HedgeAfter: time.Millisecond})
	var first sync.Once
	run("google", "slow", func() ([]types.Tuple, error) {
		slow := false
		first.Do(func() { slow = true })
		if slow {
			time.Sleep(40 * time.Millisecond)
			return nil, nil
		}
		time.Sleep(5 * time.Millisecond)
		return nil, nil
	})
	// A call that only times out.
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 1, CallTimeout: time.Millisecond})
	run("google", "stuck", func() ([]types.Tuple, error) {
		time.Sleep(10 * time.Millisecond)
		return nil, nil
	})
	p.Quiesce()

	reg := obs.NewRegistry()
	p.Observe(reg)
	var page strings.Builder
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(page.String(), "\n")
	sample := func(family, dest string) int64 {
		t.Helper()
		prefix := family + `{dest="` + dest + `"} `
		for _, line := range lines {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatalf("%q: %v", line, err)
				}
				return n
			}
		}
		t.Errorf("no %s sample for %s", family, dest)
		return 0
	}

	dests := []string{"altavista", "lycos", "google"}
	st := p.Stats()
	for _, f := range []struct {
		family string
		want   []int64 // per entry of dests
		stats  int64   // the Stats field of the same event; -1 for none
	}{
		// Executions: altavista's ok and failed call (its cache and peer
		// hits never reach an engine), lycos's failure and retry, google's
		// original, hedge and timed-out call.
		{"wsq_pump_call_latency_seconds_count", []int64{2, 2, 3}, -1},
		{"wsq_pump_retries_total", []int64{0, 1, 0}, st.Retries},
		{"wsq_pump_hedges_total", []int64{0, 0, 1}, st.Hedges},
		{"wsq_pump_call_timeouts_total", []int64{0, 0, 1}, st.CallTimeouts},
		{"wsq_pump_peer_hits_total", []int64{1, 0, 0}, st.PeerHits},
		{"wsq_pump_calls_failed_total", []int64{1, 0, 1}, st.CallsFailed},
	} {
		var sum int64
		for i, dest := range dests {
			got := sample(f.family, dest)
			if got != f.want[i] {
				t.Errorf("%s{dest=%q} = %d, want %d", f.family, dest, got, f.want[i])
			}
			sum += got
		}
		if f.stats >= 0 && sum != f.stats {
			t.Errorf("%s sums to %d over destinations, Stats says %d", f.family, sum, f.stats)
		}
	}
	if st.CacheHits != 1 {
		t.Errorf("Stats().CacheHits = %d, want 1", st.CacheHits)
	}
}
