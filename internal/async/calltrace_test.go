package async

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/types"
)

func tracedCtx() (context.Context, *obs.TraceCtx) {
	tc := obs.NewTraceCtx()
	return obs.WithTrace(context.Background(), tc), tc
}

// recordingSink captures ProfileSink callbacks for assertions.
type recordingSink struct {
	mu     sync.Mutex
	calls  []string // "dest/failed"
	events []string // "dest/kind"
}

func (r *recordingSink) CallObserved(dest string, d time.Duration, failed bool) {
	r.mu.Lock()
	r.calls = append(r.calls, fmt.Sprintf("%s/%v", dest, failed))
	r.mu.Unlock()
}

func (r *recordingSink) EventObserved(dest, kind string) {
	r.mu.Lock()
	r.events = append(r.events, dest+"/"+kind)
	r.mu.Unlock()
}

func (r *recordingSink) snapshot() ([]string, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string{}, r.calls...), append([]string{}, r.events...)
}

// TestCallTraceLifecycle: a sampled registration produces a trace record
// that converts to a pump.call span with one attempt child and the queue
// wait, and TakeCallTraces hands it out exactly once.
func TestCallTraceLifecycle(t *testing.T) {
	// One slot, held by an untraced call, so the traced call measurably
	// queues: a zero queue_us is omitted from the extras like any zero.
	p := NewPump(1, 1, nil)
	defer p.Close()
	ctx, tc := tracedCtx()

	p.RegisterCtx(context.Background(), "altavista", "k0", func() ([]types.Tuple, error) {
		time.Sleep(2 * time.Millisecond)
		return nil, nil
	})
	id := p.RegisterCtx(ctx, "altavista", "k1", func() ([]types.Tuple, error) {
		time.Sleep(2 * time.Millisecond)
		return []types.Tuple{{types.Int(1)}}, nil
	})
	if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true}); err != nil {
		t.Fatal(err)
	}
	p.Take(id)

	cts := p.TakeCallTraces([]types.CallID{id})
	if len(cts) != 1 {
		t.Fatalf("TakeCallTraces returned %d records, want 1", len(cts))
	}
	if cts[0].TraceID() != tc.TraceID {
		t.Errorf("record trace id = %q, want %q", cts[0].TraceID(), tc.TraceID)
	}
	sp := cts[0].Span()
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

	// Exactly-once: a dependent join re-closing its subtree must not
	// attach the same call twice.
	if again := p.TakeCallTraces([]types.CallID{id}); len(again) != 0 {
		t.Errorf("second TakeCallTraces returned %d records", len(again))
	}
}

// TestCallTraceOutcomes: cache hits, errors, and coalesced calls carry
// their outcome in the span detail.
func TestCallTraceOutcomes(t *testing.T) {
	cache := &countingCache{m: map[string][]types.Tuple{
		"warm": {{types.Int(7)}},
	}}
	p := NewPump(4, 4, cache)
	defer p.Close()
	ctx, _ := tracedCtx()

	hit := p.RegisterCtx(ctx, "altavista", "warm", nil)
	p.Take(hit)
	cts := p.TakeCallTraces([]types.CallID{hit})
	if len(cts) != 1 || cts[0].Span().Detail != "altavista cache_hit" {
		t.Fatalf("cache hit trace: %+v", cts)
	}

	boom := p.RegisterCtx(ctx, "lycos", "kaboom", func() ([]types.Tuple, error) {
		return nil, fmt.Errorf("engine down")
	})
	if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{boom: true}); err != nil {
		t.Fatal(err)
	}
	p.Take(boom)
	cts = p.TakeCallTraces([]types.CallID{boom})
	if len(cts) != 1 {
		t.Fatal("no trace for failed call")
	}
	sp := cts[0].Span()
	if sp.Detail != "lycos error" {
		t.Errorf("failed call detail = %q, want \"lycos error\"", sp.Detail)
	}
	if len(sp.Children) == 0 || sp.Children[0].Detail != "failed" {
		t.Errorf("failed attempt not marked: %+v", sp.Children)
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
	p.Take(id)
	if cts := p.TakeCallTraces([]types.CallID{id}); len(cts) != 0 {
		t.Errorf("untraced call produced %d trace records", len(cts))
	}

	// An unsampled trace context is equally invisible.
	tc := obs.NewTraceCtx()
	tc.Sampled = false
	id2 := p.RegisterCtx(obs.WithTrace(context.Background(), tc), "d", "k2", func() ([]types.Tuple, error) { return nil, nil })
	if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id2: true}); err != nil {
		t.Fatal(err)
	}
	p.Take(id2)
	if cts := p.TakeCallTraces([]types.CallID{id2}); len(cts) != 0 {
		t.Errorf("unsampled call produced %d trace records", len(cts))
	}
}

// TestPumpProfileSink: the pump feeds the profile store every call's
// latency/failure plus cache-hit events, independent of tracing.
func TestPumpProfileSink(t *testing.T) {
	cache := &countingCache{m: map[string][]types.Tuple{"warm": {{types.Int(7)}}}}
	p := NewPump(4, 4, cache)
	defer p.Close()
	sink := &recordingSink{}
	p.SetProfiles(sink)

	ok := p.RegisterCtx(context.Background(), "altavista", "k1", func() ([]types.Tuple, error) {
		return []types.Tuple{{types.Int(1)}}, nil
	})
	bad := p.RegisterCtx(context.Background(), "altavista", "k2", func() ([]types.Tuple, error) {
		return nil, fmt.Errorf("down")
	})
	for _, id := range []types.CallID{ok, bad} {
		if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true}); err != nil {
			t.Fatal(err)
		}
		p.Take(id)
	}
	p.Take(p.RegisterCtx(context.Background(), "altavista", "warm", nil)) // cache hit

	calls, events := sink.snapshot()
	if len(calls) != 2 {
		t.Fatalf("CallObserved fired %d times, want 2: %v", len(calls), calls)
	}
	failures := 0
	for _, c := range calls {
		if c == "altavista/true" {
			failures++
		}
	}
	if failures != 1 {
		t.Errorf("failed-call observations = %d, want 1: %v", failures, calls)
	}
	wantEvent := "altavista/cache_hit"
	found := false
	for _, e := range events {
		if e == wantEvent {
			found = true
		}
	}
	if !found {
		t.Errorf("events %v missing %q", events, wantEvent)
	}

	// Detached sink: no further observations, no crash.
	p.SetProfiles(nil)
	id := p.RegisterCtx(context.Background(), "altavista", "k3", func() ([]types.Tuple, error) { return nil, nil })
	if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true}); err != nil {
		t.Fatal(err)
	}
	p.Take(id)
	if calls, _ := sink.snapshot(); len(calls) != 2 {
		t.Errorf("detached sink still observed calls: %v", calls)
	}
}
