package async

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/types"
)

// countEngine is a minimal search.Engine that counts Count invocations —
// the probe for the coalescing contract ("N concurrent identical misses
// produce exactly one engine call").
type countEngine struct {
	calls atomic.Int64
	gate  chan struct{} // when non-nil, Count blocks until the gate closes
}

func (e *countEngine) Name() string { return "counting" }
func (e *countEngine) Count(query string) (int64, error) {
	e.calls.Add(1)
	if e.gate != nil {
		<-e.gate
	}
	return 7, nil
}
func (e *countEngine) Search(query string, k int) ([]search.Result, error) {
	return nil, fmt.Errorf("unused")
}
func (e *countEngine) Fetch(url string) (string, error) { return "", fmt.Errorf("unused") }

// TestCoalesceConcurrentIdenticalMisses is the tier-cache singleflight
// contract at its root: when many registrations for the same key arrive
// while the first is still executing, exactly one engine call happens and
// every registration receives its rows. The engine is gated so all N
// registrations provably arrive before the one execution completes —
// deterministic, not timing-dependent.
func TestCoalesceConcurrentIdenticalMisses(t *testing.T) {
	const n = 64
	eng := &countEngine{gate: make(chan struct{})}
	// Seeded Delayed wrapper: same stack as production engines; zero
	// latency keeps the schedule exact.
	d := search.NewDelayed(eng, search.ZeroLatency(), 1)
	p := NewPump(8, 8, &countingCache{m: make(map[string][]types.Tuple)})
	defer closeWithin(t, p, 5*time.Second)

	call := func() ([]types.Tuple, error) {
		c, err := d.Count("texas")
		if err != nil {
			return nil, err
		}
		return []types.Tuple{{types.Int(c)}}, nil
	}

	var wg sync.WaitGroup
	ids := make([]types.CallID, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = p.RegisterCtx(context.Background(), "counting", "count|texas", call)
		}(i)
	}
	wg.Wait()
	// All n registrations are in (one in flight, n-1 coalesced onto it);
	// release the engine.
	close(eng.gate)

	for i, id := range ids {
		awaitWithin(t, p, id)
		res, ok := p.Take(id)
		if !ok || res.Err != nil {
			t.Fatalf("take %d: ok=%v err=%v", i, ok, res.Err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
			t.Fatalf("registration %d got wrong rows: %v", i, res.Rows)
		}
	}

	if got := eng.calls.Load(); got != 1 {
		t.Errorf("engine calls = %d, want exactly 1", got)
	}
	st := p.Stats()
	if st.Coalesced != n-1 {
		t.Errorf("coalesced = %d, want %d", st.Coalesced, n-1)
	}
	if st.Started != 1 {
		t.Errorf("started = %d, want 1", st.Started)
	}
}

// TestCoalesceAfterCompletionHitsCache closes the loop: once the single
// coalesced execution finishes, later registrations for the key are cache
// hits — still zero additional engine calls.
func TestCoalesceAfterCompletionHitsCache(t *testing.T) {
	eng := &countEngine{}
	d := search.NewDelayed(eng, search.ZeroLatency(), 1)
	p := NewPump(8, 8, &countingCache{m: make(map[string][]types.Tuple)})
	defer closeWithin(t, p, 5*time.Second)
	call := func() ([]types.Tuple, error) {
		c, err := d.Count("texas")
		if err != nil {
			return nil, err
		}
		return []types.Tuple{{types.Int(c)}}, nil
	}
	first := p.RegisterCtx(context.Background(), "counting", "count|texas", call)
	awaitWithin(t, p, first)
	p.Take(first)
	for i := 0; i < 5; i++ {
		id := p.RegisterCtx(context.Background(), "counting", "count|texas", call)
		awaitWithin(t, p, id)
		if res, ok := p.Take(id); !ok || res.Err != nil || res.Rows[0][0].I != 7 {
			t.Fatalf("cached take %d: %+v %v", i, res, ok)
		}
	}
	if got := eng.calls.Load(); got != 1 {
		t.Errorf("engine calls = %d, want 1 (later registrations must hit the cache)", got)
	}
	if hits := p.Stats().CacheHits; hits != 5 {
		t.Errorf("cache hits = %d, want 5", hits)
	}
}

// awaitWithin waits for call id to settle, failing the test with its error
// or, as within does, by name if it has not settled within 5 s.
func awaitWithin(t *testing.T, p *Pump, id types.CallID) {
	t.Helper()
	within(t, p, 5*time.Second, fmt.Sprintf("await of call %d", id), func() error {
		_, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true})
		return err
	})
}

// peerStub is a scripted CachePeer for pump-level peering tests: every
// key is homed elsewhere, and the home serves the keys in rows.
type peerStub struct {
	mu      sync.Mutex
	rows    map[string][]types.Tuple
	fetches int
}

func (s *peerStub) Remote(string) bool { return true }

func (s *peerStub) Fetch(ctx context.Context, src, key string) ([]types.Tuple, bool, *obs.Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fetches++
	r, ok := s.rows[key]
	var span *obs.Span
	if obs.SampledTrace(ctx) != nil {
		span = &obs.Span{Op: "shard.peer.fetch", Start: time.Now()}
	}
	return r, ok, span
}

func (s *peerStub) fetched() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fetches
}

// fnSource is a source each of whose calls runs fn: how the peering tests
// register a scan's call, the only kind a pump asks of a peer.
type fnSource struct {
	dest string
	fn   func() ([]types.Tuple, error)
}

func (s fnSource) Name() string                                 { return "F" }
func (s fnSource) Destination() string                          { return s.dest }
func (s fnSource) NumEcho() int                                 { return 0 }
func (s fnSource) AppendKey(buf []byte, _ []types.Value) []byte { return buf }
func (s fnSource) Call(string) func() ([]types.Tuple, error)    { return s.fn }

// TestPumpPeerFetchServesWithoutEngine: a peer hit answers the call with
// zero engine executions and starts nothing here, records PeerHits, and
// still lands in the local cache; a peer miss falls through to the
// engine. A RegisterCtx call, which names no source, is never asked.
func TestPumpPeerFetchServesWithoutEngine(t *testing.T) {
	local := &countingCache{m: make(map[string][]types.Tuple)}
	p := NewPump(4, 4, local)
	defer closeWithin(t, p, 5*time.Second)
	peer := &peerStub{rows: map[string][]types.Tuple{
		"hot": {{types.Int(99)}},
	}}
	p.SetCachePeer(peer)

	var engineCalls atomic.Int64
	src := fnSource{dest: "d", fn: func() ([]types.Tuple, error) {
		engineCalls.Add(1)
		return []types.Tuple{{types.Int(1)}}, nil
	}}
	call := func(key string) CallResult {
		t.Helper()
		rows, _, _, err := p.CallWithRetry(context.Background(), src, key)
		return CallResult{Rows: rows, Err: err}
	}

	// Peer-resident key: no engine call, result correct, local cache warm.
	if res := call("hot"); res.Err != nil || res.Rows[0][0].I != 99 {
		t.Fatalf("peer-served result: %+v", res)
	}
	if engineCalls.Load() != 0 {
		t.Errorf("engine ran despite peer hit")
	}
	if st := p.Stats(); st.PeerHits != 1 || st.Started != 0 {
		t.Errorf("peer hits = %d, started = %d; want 1, 0", st.PeerHits, st.Started)
	}
	if _, ok := local.Get("hot"); !ok {
		t.Error("peer result should be cached locally")
	}

	// Peer-missing key: the engine executes here.
	if res := call("cold"); res.Err != nil {
		t.Fatal(res.Err)
	}
	if engineCalls.Load() != 1 {
		t.Errorf("engine calls = %d, want 1", engineCalls.Load())
	}

	// A RegisterCtx call is not asked.
	id := p.RegisterCtx(context.Background(), "d", "fn-only", src.fn)
	awaitWithin(t, p, id)
	p.Take(id)

	// Detach: peering must disengage cleanly.
	p.SetCachePeer(nil)
	call("hot2")
	if fetches := peer.fetched(); fetches != 2 {
		t.Errorf("peer fetches = %d, want 2 (hot and cold only)", fetches)
	}
}

// TestPumpPeerSlotAccounting: an ask takes no token. On a pump bounded to
// one slot, held by a call the peer does not serve, peer hits still
// complete, and once that call returns the pump is drained.
func TestPumpPeerSlotAccounting(t *testing.T) {
	local := &countingCache{m: make(map[string][]types.Tuple)}
	p := NewPump(1, 1, local)
	defer closeWithin(t, p, 5*time.Second)
	peer := &peerStub{rows: map[string][]types.Tuple{"a": {{types.Int(1)}}}}
	p.SetCachePeer(peer)
	gate := make(chan struct{})
	blocked := fnSource{dest: "d", fn: func() ([]types.Tuple, error) {
		<-gate
		return nil, nil
	}}
	done := make(chan error, 1)
	go func() {
		_, _, _, err := p.CallWithRetry(context.Background(), blocked, "block")
		done <- err
	}()
	for running, _ := p.Active(); running == 0; running, _ = p.Active() {
		time.Sleep(time.Millisecond)
	}
	unreachable := fnSource{dest: "d", fn: func() ([]types.Tuple, error) { return nil, fmt.Errorf("unreachable") }}
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, _, _, err := p.CallWithRetry(ctx, unreachable, "a")
		cancel()
		if err != nil {
			t.Fatalf("iteration %d: %v (did the ask wait for the held slot?)", i, err)
		}
		// Key "a" is now locally cached; drop it to force the ask again.
		local.mu.Lock()
		delete(local.m, "a")
		local.mu.Unlock()
	}
	close(gate)
	within(t, p, 5*time.Second, "the blocked call", func() error { return <-done })
	if running, queued := p.Active(); running != 0 || queued != 0 {
		t.Errorf("pump not drained: running=%d queued=%d", running, queued)
	}
}

// TestPumpWithoutCacheNeverPeers: a pump with no local result cache (wsqd
// -cache 0 in worker mode) never asks the peer for a key, even with a
// peer attached.
func TestPumpWithoutCacheNeverPeers(t *testing.T) {
	p := NewPump(4, 4, nil)
	defer closeWithin(t, p, 5*time.Second)
	peer := &peerStub{rows: map[string][]types.Tuple{"hot": {{types.Int(99)}}}}
	p.SetCachePeer(peer)
	var engineCalls atomic.Int64
	src := fnSource{dest: "d", fn: func() ([]types.Tuple, error) {
		engineCalls.Add(1)
		return []types.Tuple{{types.Int(1)}}, nil
	}}
	for _, key := range []string{"hot", "cold"} {
		rows, _, _, err := p.CallWithRetry(context.Background(), src, key)
		if err != nil || rows[0][0].I != 1 {
			t.Fatalf("%s: %v %v, want the engine's row", key, rows, err)
		}
	}
	if fetches := peer.fetched(); engineCalls.Load() != 2 || fetches != 0 {
		t.Errorf("engine calls %d, peer fetches %d; want 2, 0", engineCalls.Load(), fetches)
	}
}
