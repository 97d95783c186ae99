package async

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	defer p.Close()

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
		if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true}); err != nil {
			t.Fatalf("await %d: %v", i, err)
		}
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
	defer p.Close()
	call := func() ([]types.Tuple, error) {
		c, err := d.Count("texas")
		if err != nil {
			return nil, err
		}
		return []types.Tuple{{types.Int(c)}}, nil
	}
	first := p.RegisterCtx(context.Background(), "counting", "count|texas", call)
	if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{first: true}); err != nil {
		t.Fatal(err)
	}
	p.Take(first)
	for i := 0; i < 5; i++ {
		id := p.RegisterCtx(context.Background(), "counting", "count|texas", call)
		if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true}); err != nil {
			t.Fatal(err)
		}
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

// peerStub is a scripted CachePeer for pump-level peering tests.
type peerStub struct {
	mu      sync.Mutex
	rows    map[string][]types.Tuple
	fetches int
	fills   map[string]int
}

func (s *peerStub) Fetch(ctx context.Context, key string) ([]types.Tuple, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fetches++
	r, ok := s.rows[key]
	return r, ok
}

func (s *peerStub) Fill(key string, rows []types.Tuple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fills == nil {
		s.fills = make(map[string]int)
	}
	s.fills[key]++
}

// TestPumpPeerFetchServesWithoutEngine: a peer hit answers the call with
// zero engine executions, records PeerHits, and still lands in the local
// cache; a peer miss falls through to the engine and triggers a Fill.
func TestPumpPeerFetchServesWithoutEngine(t *testing.T) {
	local := &countingCache{m: make(map[string][]types.Tuple)}
	p := NewPump(4, 4, local)
	defer p.Close()
	peer := &peerStub{rows: map[string][]types.Tuple{
		"hot": {{types.Int(99)}},
	}}
	p.SetCachePeer(peer)

	var engineCalls atomic.Int64
	mk := func() ([]types.Tuple, error) {
		engineCalls.Add(1)
		return []types.Tuple{{types.Int(1)}}, nil
	}

	// Peer-resident key: no engine call, result correct, local cache warm.
	id := p.RegisterCtx(context.Background(), "d", "hot", mk)
	p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true})
	res, _ := p.Take(id)
	if res.Err != nil || res.Rows[0][0].I != 99 {
		t.Fatalf("peer-served result: %+v", res)
	}
	if engineCalls.Load() != 0 {
		t.Errorf("engine ran despite peer hit")
	}
	if st := p.Stats(); st.PeerHits != 1 {
		t.Errorf("peer hits = %d, want 1", st.PeerHits)
	}
	if _, ok := local.Get("hot"); !ok {
		t.Error("peer result should be cached locally")
	}

	// Peer-missing key: engine executes, and the result is offered back.
	id = p.RegisterCtx(context.Background(), "d", "cold", mk)
	p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true})
	if res, _ := p.Take(id); res.Err != nil {
		t.Fatal(res.Err)
	}
	if engineCalls.Load() != 1 {
		t.Errorf("engine calls = %d, want 1", engineCalls.Load())
	}
	peer.mu.Lock()
	fills := peer.fills["cold"]
	peer.mu.Unlock()
	if fills != 1 {
		t.Errorf("fills for cold = %d, want 1", fills)
	}

	// Detach: peering must disengage cleanly.
	p.SetCachePeer(nil)
	id = p.RegisterCtx(context.Background(), "d", "hot2", mk)
	p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true})
	p.Take(id)
	peer.mu.Lock()
	fetches := peer.fetches
	peer.mu.Unlock()
	if fetches != 2 {
		t.Errorf("peer fetches after detach = %d, want 2 (no new fetch)", fetches)
	}
}

// TestPumpPeerSlotAccounting: a pump bounded to one slot must fully
// release it on the peer-hit path — a follow-up engine call would hang
// forever on a leaked token.
func TestPumpPeerSlotAccounting(t *testing.T) {
	local := &countingCache{m: make(map[string][]types.Tuple)}
	p := NewPump(1, 1, local)
	defer p.Close()
	peer := &peerStub{rows: map[string][]types.Tuple{"a": {{types.Int(1)}}}}
	p.SetCachePeer(peer)
	for i := 0; i < 3; i++ {
		id := p.RegisterCtx(context.Background(), "d", "a", func() ([]types.Tuple, error) { return nil, fmt.Errorf("unreachable") })
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err := p.AwaitAnyCtx(ctx, map[types.CallID]bool{id: true})
		cancel()
		if err != nil {
			t.Fatalf("iteration %d: %v (slot leak?)", i, err)
		}
		p.Take(id)
		// Key "a" is now locally cached; use fresh keys to force the peer
		// path again.
		local.mu.Lock()
		delete(local.m, "a")
		local.mu.Unlock()
	}
	if running, queued := p.Active(); running != 0 || queued != 0 {
		t.Errorf("pump not drained: running=%d queued=%d", running, queued)
	}
}

// TestPumpWithoutCacheNeverPeers: a pump with no local result cache (wsqd
// -cache 0 in worker mode) neither asks the peer for a key nor offers it
// the rows it computed, even with a peer attached.
func TestPumpWithoutCacheNeverPeers(t *testing.T) {
	p := NewPump(4, 4, nil)
	defer p.Close()
	peer := &peerStub{rows: map[string][]types.Tuple{"hot": {{types.Int(99)}}}}
	p.SetCachePeer(peer)
	var engineCalls atomic.Int64
	for _, key := range []string{"hot", "cold"} {
		id := p.RegisterCtx(context.Background(), "d", key, func() ([]types.Tuple, error) {
			engineCalls.Add(1)
			return []types.Tuple{{types.Int(1)}}, nil
		})
		p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true})
		if res, _ := p.Take(id); res.Err != nil || res.Rows[0][0].I != 1 {
			t.Fatalf("%s: %+v, want the engine's row", key, res)
		}
	}
	peer.mu.Lock()
	fetches, fills := peer.fetches, len(peer.fills)
	peer.mu.Unlock()
	if engineCalls.Load() != 2 || fetches != 0 || fills != 0 {
		t.Errorf("engine calls %d, peer fetches %d, keys filled %d; want 2, 0, 0", engineCalls.Load(), fetches, fills)
	}
}
