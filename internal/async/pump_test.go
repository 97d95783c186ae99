package async

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/types"
)

func TestPumpBasicRegisterTake(t *testing.T) {
	p := newPump(t, 4, 4, nil)
	id := p.RegisterCtx(context.Background(), "d", "k", func() ([]types.Tuple, error) {
		return []types.Tuple{{types.Int(42)}}, nil
	})
	got, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true})
	if err != nil || got != id {
		t.Fatalf("await: %v %v", got, err)
	}
	res, ok := p.Take(id)
	if !ok || res.Err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 42 {
		t.Fatalf("take: %+v %v", res, ok)
	}
	// Result is consumed.
	if _, ok := p.Take(id); ok {
		t.Error("second take should miss")
	}
}

func TestPumpConcurrencyOverlap(t *testing.T) {
	p := newPump(t, 64, 64, nil)
	var active, peak int32
	const n = 20
	ids := make(map[types.CallID]bool)
	for i := 0; i < n; i++ {
		id := p.RegisterCtx(context.Background(), "d", fmt.Sprintf("k%d", i), func() ([]types.Tuple, error) {
			cur := atomic.AddInt32(&active, 1)
			for {
				old := atomic.LoadInt32(&peak)
				if cur <= old || atomic.CompareAndSwapInt32(&peak, old, cur) {
					break
				}
			}
			time.Sleep(20 * time.Millisecond)
			atomic.AddInt32(&active, -1)
			return nil, nil
		})
		ids[id] = true
	}
	deadline := time.After(5 * time.Second)
	for len(ids) > 0 {
		select {
		case <-deadline:
			t.Fatal("timeout")
		default:
		}
		id, err := p.AwaitAnyCtx(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		p.Take(id)
		delete(ids, id)
	}
	if got := atomic.LoadInt32(&peak); got < n/2 {
		t.Errorf("peak concurrency %d; calls should overlap", got)
	}
}

func TestPumpTotalLimit(t *testing.T) {
	const limit = 3
	p := newPump(t, limit, limit, nil)
	var active, peak int32
	ids := make(map[types.CallID]bool)
	for i := 0; i < 12; i++ {
		id := p.RegisterCtx(context.Background(), "d", fmt.Sprintf("k%d", i), func() ([]types.Tuple, error) {
			cur := atomic.AddInt32(&active, 1)
			for {
				old := atomic.LoadInt32(&peak)
				if cur <= old || atomic.CompareAndSwapInt32(&peak, old, cur) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			atomic.AddInt32(&active, -1)
			return nil, nil
		})
		ids[id] = true
	}
	for len(ids) > 0 {
		id, err := p.AwaitAnyCtx(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		p.Take(id)
		delete(ids, id)
	}
	if got := atomic.LoadInt32(&peak); got > limit {
		t.Errorf("peak %d exceeded limit %d", got, limit)
	}
	st := p.Stats()
	if st.Started != 12 || st.Completed != 12 {
		t.Errorf("stats: %+v", st)
	}
	if st.MaxActive > limit {
		t.Errorf("stats maxActive %d > limit", st.MaxActive)
	}
}

func TestPumpPerDestinationLimit(t *testing.T) {
	// Destination "slow" is limited; "fast" must not be starved behind it.
	p := newPump(t, 8, 1, nil)
	var slowActive, slowPeak int32
	release := make(chan struct{})
	ids := make(map[types.CallID]bool)
	var fastDone atomic.Int32
	for i := 0; i < 3; i++ {
		id := p.RegisterCtx(context.Background(), "slow", fmt.Sprintf("s%d", i), func() ([]types.Tuple, error) {
			cur := atomic.AddInt32(&slowActive, 1)
			for {
				old := atomic.LoadInt32(&slowPeak)
				if cur <= old || atomic.CompareAndSwapInt32(&slowPeak, old, cur) {
					break
				}
			}
			<-release
			atomic.AddInt32(&slowActive, -1)
			return nil, nil
		})
		ids[id] = true
	}
	fastID := p.RegisterCtx(context.Background(), "fast", "f", func() ([]types.Tuple, error) {
		fastDone.Add(1)
		return nil, nil
	})
	// The fast call must complete even while slow calls hold their slot.
	if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{fastID: true}); err != nil {
		t.Fatal(err)
	}
	if fastDone.Load() != 1 {
		t.Error("fast destination starved behind slow destination queue")
	}
	close(release)
	for len(ids) > 0 {
		id, err := p.AwaitAnyCtx(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		p.Take(id)
		delete(ids, id)
	}
	if got := atomic.LoadInt32(&slowPeak); got > 1 {
		t.Errorf("slow destination peak %d > per-dest limit 1", got)
	}
}

func TestPumpCache(t *testing.T) {
	c := &countingCache{m: make(map[string][]types.Tuple)}
	p := newPump(t, 4, 4, c)
	var calls atomic.Int32
	fn := func() ([]types.Tuple, error) {
		calls.Add(1)
		return []types.Tuple{{types.Int(1)}}, nil
	}
	id1 := p.RegisterCtx(context.Background(), "d", "same", fn)
	p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id1: true})
	p.Take(id1)
	// Second identical call: served from cache, no new execution.
	id2 := p.RegisterCtx(context.Background(), "d", "same", fn)
	res, ok := p.Take(id2)
	if !ok {
		t.Fatal("cached call should be immediately done")
	}
	if len(res.Rows) != 1 || calls.Load() != 1 {
		t.Errorf("cache bypass failed: calls=%d", calls.Load())
	}
	if hits := p.Stats().CacheHits; hits != 1 {
		t.Errorf("cache hits: %d", hits)
	}
}

type countingCache struct {
	mu sync.Mutex
	m  map[string][]types.Tuple
}

func (c *countingCache) Get(k string) ([]types.Tuple, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[k]
	return r, ok
}
func (c *countingCache) Peek(k []byte) ([]types.Tuple, bool) { return c.Get(string(k)) }
func (c *countingCache) Put(k string, rows []types.Tuple) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = rows
}

func TestPumpErrorPropagation(t *testing.T) {
	p := newPump(t, 2, 2, nil)
	id := p.RegisterCtx(context.Background(), "d", "k", func() ([]types.Tuple, error) {
		return nil, fmt.Errorf("engine down")
	})
	p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true})
	res, ok := p.Take(id)
	if !ok || res.Err == nil {
		t.Fatal("error should surface in the result")
	}
}

func TestPumpAwaitAnyValidation(t *testing.T) {
	p := newPump(t, 2, 2, nil)
	if _, err := p.AwaitAnyCtx(context.Background(), nil); err == nil {
		t.Error("await with no ids should error")
	}
}

func TestPumpCloseWakesWaiters(t *testing.T) {
	p := newPump(t, 1, 1, nil)
	block := make(chan struct{})
	id := p.RegisterCtx(context.Background(), "d", "k", func() ([]types.Tuple, error) {
		<-block
		return nil, nil
	})
	done := make(chan error, 1)
	go func() {
		// Wait on a call that never completes before Close.
		fake := types.CallID(99999)
		_, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{fake: true})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	p.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("closed pump should error out waiters")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not woken by Close")
	}
	close(block)
	_ = id
}

func TestPumpDiscard(t *testing.T) {
	p := newPump(t, 2, 2, nil)
	id := p.RegisterCtx(context.Background(), "d", "k", func() ([]types.Tuple, error) { return nil, nil })
	p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true})
	p.Discard(id)
	if _, ok := p.Take(id); ok {
		t.Error("discarded result should be gone")
	}

	// Discard of an id the pump does not hold — discarded twice, already
	// taken, never registered — is a no-op that leaves no state behind.
	taken := p.RegisterCtx(context.Background(), "d", "k", func() ([]types.Tuple, error) { return nil, nil })
	p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{taken: true})
	p.Take(taken)
	before := p.Stats()
	p.Discard(id, taken, 9999)
	if held := p.Held(); held != 0 {
		t.Errorf("Held() = %d after discarding ids the pump does not hold, want 0", held)
	}
	if after := p.Stats(); after != before {
		t.Errorf("no-op Discard moved counters: %+v -> %+v", before, after)
	}
	// A later call is unaffected by the stale discards.
	again := p.RegisterCtx(context.Background(), "d", "k", func() ([]types.Tuple, error) { return nil, nil })
	p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{again: true})
	if _, ok := p.Take(again); !ok {
		t.Error("call registered after stale discards lost its result")
	}
}

// TestPumpRoundTripAllocs pins the hot path: one RegisterCtx → AwaitAnyCtx
// → Take round trip on an observed, cache-less pump allocates no more than
// it did before the call and destination tables replaced the per-event
// maps and registry handles (2 measured there: the call record and the
// id list its settlement built; BenchmarkPumpRoundTrip's 4 adds the ids
// map it builds per iteration, which here stays on the stack).
func TestPumpRoundTripAllocs(t *testing.T) {
	p := NewPump(64, 64, nil)
	defer p.Close()
	p.Observe(obs.NewRegistry())
	ctx := context.Background()
	fn := func() ([]types.Tuple, error) { return nil, nil }
	allocs := testing.AllocsPerRun(2000, func() {
		id := p.RegisterCtx(ctx, "d", "k", fn)
		if _, err := p.AwaitAnyCtx(ctx, map[types.CallID]bool{id: true}); err != nil {
			t.Fatal(err)
		}
		if _, ok := p.Take(id); !ok {
			t.Fatal("missing result")
		}
	})
	if allocs > 2 {
		t.Errorf("pump round trip: %.1f allocs/op, want <= 2", allocs)
	}
}

// TestPumpPolicyRoundAllocs: under wsqd's retry policy an execution runs
// the same path as under the zero policy, plus the deadline timer armed
// at dispatch and the closure it calls — 2 objects per call, and no
// goroutine, channel or timer of its own per attempt. A round of 50 calls
// is measured both ways.
func TestPumpPolicyRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include the race detector's own")
	}
	const n = 50
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	ctx := context.Background()
	fn := func() ([]types.Tuple, error) { return nil, nil }
	round := func(pol RetryPolicy) float64 {
		p := NewPump(64, 64, nil)
		defer p.Close()
		p.SetRetryPolicy(pol)
		ids := make(map[types.CallID]bool, n)
		return testing.AllocsPerRun(200, func() {
			for _, k := range keys {
				ids[p.RegisterCtx(ctx, "d", k, fn)] = true
			}
			for len(ids) > 0 {
				id, err := p.AwaitAnyCtx(ctx, ids)
				if err != nil {
					t.Fatal(err)
				}
				p.Take(id)
				delete(ids, id)
			}
		})
	}
	zero, wsqd := round(RetryPolicy{}), round(wsqdPolicy)
	if wsqd > zero+2*n {
		t.Errorf("a round of %d calls: %.0f allocs under wsqd's policy, %.0f under the zero policy; want at most %d more", n, wsqd, zero, 2*n)
	}
	t.Logf("a round of %d calls: %.0f allocs under the zero policy, %.0f under wsqd's", n, zero, wsqd)
}

// TestCacheHitAllocs: a request the cache answers costs the pump nothing
// on the heap — no call record, no trace, no closure — and costs a scan's
// batch round one object per distinct key, the key string, on top of the
// round's own fixed handful (the key map, the tuple list, one slab, the
// per-binding row lists).
func TestCacheHitAllocs(t *testing.T) {
	const n = 50
	cache := &countingCache{m: make(map[string][]types.Tuple)}
	p := NewPump(0, 0, cache)
	defer p.Close()
	p.Observe(obs.NewRegistry())
	src := countSource("WC", "d")
	terms := make([]string, n)
	for i := range terms {
		terms[i] = fmt.Sprintf("term%02d", i)
		cache.Put("WC|"+terms[i], []types.Tuple{{types.Int(int64(i))}})
	}
	ctx := context.Background()
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, rows, hit := p.Request(ctx, src, "WC|term07"); !hit || len(rows) != 1 {
			t.Fatal("not a hit")
		}
	}); allocs != 0 {
		t.Errorf("Pump.Request on a cache hit: %.1f allocs/op, want 0", allocs)
	}

	termCol := strCol("L", "Term")
	aev := NewAEVScan(src, []expr.Expr{expr.NewColRef(termCol)}, countSchema("V"), p)
	ectx := exec.NewContext()
	outer := tuplesOf(terms)
	allocs := testing.AllocsPerRun(200, func() {
		rows, err := aev.BindBatch(ectx, []schema.Column{termCol}, outer)
		if err != nil || len(rows) != n || len(rows[n-1]) != 1 || rows[n-1][0].HasPlaceholder() {
			t.Fatalf("round of hits: %v %v", rows, err)
		}
	})
	if allocs > n+8 {
		t.Errorf("a round of %d cache hits: %.1f allocs, want <= %d (one key each and a fixed handful)", n, allocs, n+8)
	}
	if held := p.Held(); held != 0 {
		t.Errorf("%d call records after nothing but hits", held)
	}
}

func TestPumpCoalescesInFlightDuplicates(t *testing.T) {
	// The Figure 7 hazard: many identical calls registered back to back,
	// before the first completes. With the cache enabled the pump must run
	// the network call once and fan the result out to every CallID.
	c := &countingCache{m: make(map[string][]types.Tuple)}
	p := newPump(t, 8, 8, c)
	var calls atomic.Int32
	release := make(chan struct{})
	fn := func() ([]types.Tuple, error) {
		calls.Add(1)
		<-release
		return []types.Tuple{{types.Int(7)}}, nil
	}
	ids := make(map[types.CallID]bool)
	for i := 0; i < 5; i++ {
		ids[p.RegisterCtx(context.Background(), "d", "dup", fn)] = true
	}
	close(release)
	for len(ids) > 0 {
		id, err := p.AwaitAnyCtx(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		res, ok := p.Take(id)
		if !ok || res.Err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
			t.Fatalf("coalesced result wrong: %+v", res)
		}
		delete(ids, id)
	}
	if calls.Load() != 1 {
		t.Errorf("network executions: %d, want 1", calls.Load())
	}
	st := p.Stats()
	if st.Coalesced != 4 || st.Started != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestPumpNoCoalescingWithoutCache(t *testing.T) {
	// Without the cache, identical registrations stay independent calls.
	p := newPump(t, 8, 8, nil)
	var calls atomic.Int32
	fn := func() ([]types.Tuple, error) {
		calls.Add(1)
		return nil, nil
	}
	ids := make(map[types.CallID]bool)
	for i := 0; i < 3; i++ {
		ids[p.RegisterCtx(context.Background(), "d", "dup", fn)] = true
	}
	for len(ids) > 0 {
		id, err := p.AwaitAnyCtx(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		p.Take(id)
		delete(ids, id)
	}
	if calls.Load() != 3 {
		t.Errorf("executions: %d, want 3", calls.Load())
	}
}

func TestPumpPerDestinationOverride(t *testing.T) {
	// One destination throttled to 1 while another runs at the default.
	p := newPump(t, 16, 8, nil)
	p.SetDestLimit("throttled", 1)
	var thrActive, thrPeak, freeActive, freePeak int32
	track := func(active, peak *int32, d time.Duration) func() ([]types.Tuple, error) {
		return func() ([]types.Tuple, error) {
			cur := atomic.AddInt32(active, 1)
			for {
				old := atomic.LoadInt32(peak)
				if cur <= old || atomic.CompareAndSwapInt32(peak, old, cur) {
					break
				}
			}
			time.Sleep(d)
			atomic.AddInt32(active, -1)
			return nil, nil
		}
	}
	ids := make(map[types.CallID]bool)
	for i := 0; i < 4; i++ {
		ids[p.RegisterCtx(context.Background(), "throttled", fmt.Sprintf("t%d", i), track(&thrActive, &thrPeak, 5*time.Millisecond))] = true
		ids[p.RegisterCtx(context.Background(), "free", fmt.Sprintf("f%d", i), track(&freeActive, &freePeak, 5*time.Millisecond))] = true
	}
	for len(ids) > 0 {
		id, err := p.AwaitAnyCtx(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		p.Take(id)
		delete(ids, id)
	}
	if got := atomic.LoadInt32(&thrPeak); got > 1 {
		t.Errorf("throttled destination peak %d > 1", got)
	}
	if got := atomic.LoadInt32(&freePeak); got < 2 {
		t.Errorf("free destination should overlap: peak %d", got)
	}
}

func TestPumpRaisingLimitReleasesQueue(t *testing.T) {
	p := newPump(t, 8, 8, nil)
	p.SetDestLimit("d", 0) // park everything
	done := make(chan struct{}, 1)
	id := p.RegisterCtx(context.Background(), "d", "k", func() ([]types.Tuple, error) {
		done <- struct{}{}
		return nil, nil
	})
	select {
	case <-done:
		t.Fatal("call ran despite zero limit")
	case <-time.After(20 * time.Millisecond):
	}
	p.SetDestLimit("d", 1)
	if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true}); err != nil {
		t.Fatal(err)
	}
	<-done
}
