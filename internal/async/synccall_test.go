package async

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/types"
)

// A synchronous scan's call is a pump call it waits for
// (Pump.CallWithRetry behind exec.Context.RetryCall). These tests pin
// what that makes of it: the pump's cache, tokens, coalescing, deadlines
// and cancellation apply to it exactly as to an asynchronous scan's call.

// syncResult is one CallWithRetry's return, sent back from the goroutine
// that waits in it.
type syncResult struct {
	rows []types.Tuple
	hit  bool
	err  error
}

// callSync runs CallWithRetry for key on its own goroutine.
func callSync(ctx context.Context, p *Pump, src exec.ExternalSource, key string) <-chan syncResult {
	out := make(chan syncResult, 1)
	go func() {
		rows, hit, _, err := p.CallWithRetry(ctx, src, key)
		out <- syncResult{rows, hit, err}
	}()
	return out
}

// heldSource is a one-row source whose calls block until gate is closed.
func heldSource(gate <-chan struct{}) *scriptedSource {
	return &scriptedSource{name: "G", dest: "d", numEcho: 1,
		rows: func(arg string) ([]types.Tuple, error) {
			<-gate
			return []types.Tuple{{types.Int(int64(len(arg)))}}, nil
		}}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, p *Pump, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("waiting for %s: %s", what, pumpState(p))
		}
		time.Sleep(time.Millisecond)
	}
}

// receive waits for a CallWithRetry's return, failing the test after 5 s.
func receive(t *testing.T, p *Pump, ch <-chan syncResult) syncResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("CallWithRetry did not return: %s", pumpState(p))
		return syncResult{}
	}
}

// TestEVScanCache: a synchronous scan re-opened for a repeated key costs
// one engine call — the pump's cache answers the others — and
// ExternalCalls counts only the call the cache did not answer, while the
// scan's profile counts every logical call and its hits.
func TestEVScanCache(t *testing.T) {
	src := countSource("F", "d")
	pump := NewPump(0, 0, &countingCache{m: make(map[string][]types.Tuple)})
	defer pump.Close()
	ev := exec.NewEVScan(src, []expr.Expr{expr.NewLiteral(types.Str("q"))}, countSchema("F"))
	ctx := exec.NewContext()
	ctx.RetryCall = pump.CallWithRetry
	for i := 0; i < 3; i++ {
		if rows, err := exec.Run(ctx, ev); err != nil || len(rows) != 1 {
			t.Fatalf("run %d: %v, %v", i, rows, err)
		}
	}
	if src.calls != 1 {
		t.Errorf("cache should dedupe calls: %d", src.calls)
	}
	if ctx.Stats.ExternalCalls != 1 {
		t.Errorf("stats should count only real calls: %d", ctx.Stats.ExternalCalls)
	}
	if x := ev.SpanExtras(); x["calls"] != 3 || x["cache_hits"] != 2 {
		t.Errorf("profile %v, want 3 calls of which 2 cache hits", x)
	}
	if st := pump.Stats(); st.Registered != 3 || st.CacheHits != 2 || st.Started != 1 {
		t.Errorf("pump %+v, want 3 registered, 2 hits, 1 started", st)
	}
}

// TestSyncCallWaitsForDestToken: a synchronous call takes a
// per-destination token like any other, so a destination limit of zero
// parks it in the queue until the limit is raised.
func TestSyncCallWaitsForDestToken(t *testing.T) {
	pump := NewPump(0, 0, nil)
	defer pump.Close()
	pump.SetDestLimit("d", 0)
	done := callSync(context.Background(), pump, countSource("C", "d"), "C|abc")
	waitFor(t, pump, "the call to queue", func() bool {
		_, queued := pump.Active()
		return queued == 1
	})
	select {
	case r := <-done:
		t.Fatalf("call returned %v, %v with no token to run on", r.rows, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	pump.SetDestLimit("d", 1)
	if r := receive(t, pump, done); r.err != nil || len(r.rows) != 1 || r.rows[0][0].I != 21 {
		t.Fatalf("after the limit was raised: %v, %v", r.rows, r.err)
	}
	if st := pump.Stats(); st.Started != 1 || st.MaxActive != 1 {
		t.Errorf("pump %+v, want one started call", st)
	}
}

// TestSyncCallCoalesces: on a cache-backed pump a synchronous call for a
// key an asynchronous Request already has in flight shares its
// execution: the engine runs once and both get its rows.
func TestSyncCallCoalesces(t *testing.T) {
	gate := make(chan struct{})
	src := heldSource(gate)
	pump := NewPump(0, 0, &countingCache{m: make(map[string][]types.Tuple)})
	defer pump.Close()
	id, _, hit := pump.Request(context.Background(), src, "G|abcd")
	if hit {
		t.Fatal("empty cache answered")
	}
	done := callSync(context.Background(), pump, src, "G|abcd")
	waitFor(t, pump, "the synchronous call to coalesce", func() bool { return pump.Stats().Coalesced == 1 })
	close(gate)
	r := receive(t, pump, done)
	if r.err != nil || r.hit || len(r.rows) != 1 || r.rows[0][0].I != 4 {
		t.Fatalf("synchronous call: %v, hit %v, %v", r.rows, r.hit, r.err)
	}
	if res := await(t, pump, id); res.Err != nil || len(res.Rows) != 1 {
		t.Fatalf("asynchronous call: %+v", res)
	}
	if src.calls != 1 {
		t.Errorf("engine ran %d times for one key, want 1", src.calls)
	}
	if held := pump.Held(); held != 0 {
		t.Errorf("%d call records held after both took their result", held)
	}
}

// TestSyncCallTimeoutRetries: a synchronous call's stalled attempt hits
// the policy's per-attempt deadline and is retried, counted under the
// source's own destination.
func TestSyncCallTimeoutRetries(t *testing.T) {
	pump := NewPump(4, 4, nil)
	defer pump.Close()
	pump.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, CallTimeout: 30 * time.Millisecond})
	release := make(chan struct{})
	var n atomic.Int64
	src := &scriptedSource{name: "S", dest: "d", numEcho: 1,
		rows: func(string) ([]types.Tuple, error) {
			k := n.Add(1)
			if k == 1 {
				<-release // the first attempt stalls until the test lets go
			}
			return []types.Tuple{{types.Int(k)}}, nil
		}}
	rows, hit, _, err := pump.CallWithRetry(context.Background(), src, "S|x")
	if err != nil || hit || len(rows) != 1 || rows[0][0].I != 2 {
		t.Fatalf("want the second attempt's row, got %v, hit %v, %v", rows, hit, err)
	}
	if st := pump.Stats(); st.CallTimeouts != 1 || st.Retries != 1 {
		t.Errorf("pump %+v, want one timeout and one retry", st)
	}
	d := pump.dest("d")
	if d.n[evTimeout].Load() != 1 || d.n[evRetry].Load() != 1 {
		t.Errorf("destination d counts %d timeouts, %d retries; want 1 and 1",
			d.n[evTimeout].Load(), d.n[evRetry].Load())
	}
	close(release)
	pump.Quiesce()
}

// TestSyncCallCancel: cancelling a synchronous call's context mid-call
// returns the context's error at once, and the pump lets go of the call:
// once the engine returns and the pump quiesces it holds nothing.
func TestSyncCallCancel(t *testing.T) {
	gate := make(chan struct{})
	pump := NewPump(0, 0, nil)
	defer pump.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := callSync(ctx, pump, heldSource(gate), "G|x")
	waitFor(t, pump, "the call to run", func() bool {
		running, _ := pump.Active()
		return running == 1
	})
	cancel()
	if r := receive(t, pump, done); !errors.Is(r.err, context.Canceled) || r.err != ctx.Err() {
		t.Fatalf("canceled call returned %v, %v; want ctx.Err()", r.rows, r.err)
	}
	close(gate)
	pump.Quiesce()
	if held := pump.Held(); held != 0 {
		t.Errorf("%d call records held after a canceled call", held)
	}
	if running, queued := pump.Active(); running != 0 || queued != 0 {
		t.Errorf("Active() = (%d, %d), want (0, 0)", running, queued)
	}
}
