package async

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/schema"
	"repro/internal/types"
)

// keyedSource is a one-echo source whose engine answers at once with one
// row, the length of its argument, and counts its executions per key.
// gate, when set, makes one key's execution wait for a channel.
type keyedSource struct {
	mu    sync.Mutex
	execs map[string]int
	gate  map[string]chan struct{}
}

func newKeyedSource() *keyedSource {
	return &keyedSource{execs: map[string]int{}, gate: map[string]chan struct{}{}}
}

func (s *keyedSource) Name() string        { return "K" }
func (s *keyedSource) Destination() string { return "d" }
func (s *keyedSource) NumEcho() int        { return 1 }
func (s *keyedSource) AppendKey(buf []byte, args []types.Value) []byte {
	return append(append(buf, "K|"...), args[0].AsString()...)
}
func (s *keyedSource) Call(key string) func() ([]types.Tuple, error) {
	return func() ([]types.Tuple, error) {
		s.mu.Lock()
		s.execs[key]++
		gate := s.gate[key]
		s.mu.Unlock()
		if gate != nil {
			<-gate
		}
		return []types.Tuple{{types.Int(int64(len(key)))}}, nil
	}
}

// executions returns how often key was executed.
func (s *keyedSource) executions(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.execs[key]
}

// staleCache is a fifoCache whose Peek of one chosen key first runs
// beforeMiss and then reports a miss whatever the cache holds by then:
// the lock-free probe of a round that lost the race with the key's
// completion.
type staleCache struct {
	fifoCache
	stale      string
	beforeMiss func()
}

func (c *staleCache) Peek(k []byte) ([]types.Tuple, bool) {
	if string(k) == c.stale && c.beforeMiss != nil {
		c.beforeMiss()
		return nil, false
	}
	return c.fifoCache.Peek(k)
}

// keyScan is an AEVScan over src bound to one string column.
func keyScan(src exec.ExternalSource, p *Pump) (*AEVScan, []schema.Column) {
	termCol := strCol("L", "Term")
	return NewAEVScan(src, []expr.Expr{expr.NewColRef(termCol)}, schema.New(strCol("V", "Term"), intCol("V", "Len")), p), []schema.Column{termCol}
}

// TestPeekRoundMissRacesCompletion pins the window a lock-free probe
// opens. A round's probe misses key x while x's call, registered by an
// earlier round, is still running; x then completes — its rows Put in the
// cache and its in-flight entry settled — before the round registers it.
// The locked lookup of that registration must find the rows: x is executed
// once, the round answers it as a hit, and the pump counts exactly the
// lookups the cache counted.
func TestPeekRoundMissRacesCompletion(t *testing.T) {
	src := newKeyedSource()
	release := make(chan struct{})
	src.gate["K|x"] = release
	cache := &staleCache{fifoCache: fifoCache{cap: 16, m: map[string][]types.Tuple{}}, stale: "K|x"}
	p := NewPump(4, 4, cache)
	defer p.Close()
	ctx := context.Background()

	first, cols := keyScan(src, p)
	ctx1 := exec.NewContext()
	if _, err := first.BindBatch(ctx1, cols, tuplesOf([]string{"x"})); err != nil || len(ctx1.PumpCalls) != 1 {
		t.Fatalf("first round: %d calls, %v", len(ctx1.PumpCalls), err)
	}
	running := ctx1.PumpCalls[0]
	cache.beforeMiss = func() {
		close(release)
		if _, err := p.AwaitAnyCtx(ctx, map[types.CallID]bool{running: true}); err != nil {
			t.Errorf("awaiting x's first call: %v", err)
		}
	}

	second, cols := keyScan(src, p)
	ctx2 := exec.NewContext()
	rows, err := second.BindBatch(ctx2, cols, tuplesOf([]string{"x", "y"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows[0]) != 1 || rows[0][0].HasPlaceholder() || rows[0][0][1].I != 3 {
		t.Errorf("x after its call completed: %v, want the cached row", rows[0])
	}
	if len(rows[1]) != 1 || !rows[1][0].HasPlaceholder() || len(ctx2.PumpCalls) != 1 {
		t.Errorf("y: %v with %d calls registered, want one placeholder of one call", rows[1], len(ctx2.PumpCalls))
	}
	for _, id := range append(ctx1.PumpCalls, ctx2.PumpCalls...) {
		if _, err := p.AwaitAnyCtx(ctx, map[types.CallID]bool{id: true}); err != nil {
			t.Fatal(err)
		}
		p.Take(id)
	}
	p.Quiesce()
	for _, key := range []string{"K|x", "K|y"} {
		if n := src.executions(key); n != 1 {
			t.Errorf("%s executed %d times, want 1", key, n)
		}
	}
	st := p.Stats()
	if gets, hits := cache.counts(); st.Registered != gets || st.CacheHits != hits {
		t.Errorf("pump counts %d registrations, %d hits; the cache counted %d lookups, %d hits",
			st.Registered, st.CacheHits, gets, hits)
	}
	if st.Registered != 3 || st.CacheHits != 1 {
		t.Errorf("registered %d, hits %d; want 3 (x, x, y) and 1", st.Registered, st.CacheHits)
	}
	if held := p.Held(); held != 0 {
		t.Errorf("%d call records held", held)
	}
}

// TestPeekRoundConcurrentRounds runs four queries at a time over one
// cache-backed pump and an instant engine, their rounds overlapping on a
// shared pool of keys, batch sizes mixed so rounds split differently.
// Every answer is right, every key is executed once however the probes
// and completions interleave, the pump counts the lookups the cache
// counted, and the pump drains.
func TestPeekRoundConcurrentRounds(t *testing.T) {
	const workers, queries, pool = 4, 25, 40
	src := newKeyedSource()
	cache := &fifoCache{cap: pool, m: map[string][]types.Tuple{}}
	p := NewPump(8, 8, cache)
	defer p.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for q := 0; q < queries; q++ {
				terms := make([]string, 1+rng.Intn(30))
				for i := range terms {
					terms[i] = fmt.Sprintf("t%02d", rng.Intn(pool))
				}
				aev, cols := keyScan(src, p)
				dj := exec.NewDependentJoin(exec.NewValuesScan(schema.New(cols...), tuplesOf(terms)), aev, "")
				ectx := exec.NewContext()
				ectx.BatchSize = []int{1, 3, 16, 256}[rng.Intn(4)]
				rows, err := exec.Run(ectx, syncOver(dj, p, aev.FilledAttrs()))
				p.Discard(ectx.PumpCalls...)
				if err != nil {
					t.Errorf("worker %d query %d: %v", w, q, err)
					return
				}
				if len(rows) != len(terms) {
					t.Errorf("worker %d query %d: %d rows for %d bindings", w, q, len(rows), len(terms))
				}
				for _, r := range rows {
					if r[2].I != int64(len("K|"+r[0].AsString())) {
						t.Errorf("worker %d query %d: row %v", w, q, r)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	p.Quiesce()
	for i := 0; i < pool; i++ {
		if key := fmt.Sprintf("K|t%02d", i); src.executions(key) > 1 {
			t.Errorf("%s executed %d times, want at most 1", key, src.executions(key))
		}
	}
	st := p.Stats()
	if gets, hits := cache.counts(); st.Registered != gets || st.CacheHits != hits {
		t.Errorf("pump counts %d registrations, %d hits; the cache counted %d lookups, %d hits",
			st.Registered, st.CacheHits, gets, hits)
	}
	if held := p.Held(); held != 0 {
		t.Errorf("%d call records held after Quiesce", held)
	}
	if running, queued := p.Active(); running != 0 || queued != 0 {
		t.Errorf("Active() = (%d, %d) after Quiesce, want (0, 0)", running, queued)
	}
}

// TestPeekRoundTakesNoPumpLock: a round whose every key the cache holds
// is answered while another goroutine holds p.mu. A closed pump and an
// ended context still answer no hit: their registrations get the error
// records they always did.
func TestPeekRoundTakesNoPumpLock(t *testing.T) {
	terms := []string{"a", "bb", "ccc", "a"}
	cache := &countingCache{m: map[string][]types.Tuple{}}
	for _, term := range terms {
		cache.Put("K|"+term, []types.Tuple{{types.Int(int64(len(term)))}})
	}
	p := NewPump(4, 4, cache)
	defer p.Close()
	aev, cols := keyScan(newKeyedSource(), p)
	round := func(ectx *exec.Context) [][]types.Tuple {
		t.Helper()
		rows, err := aev.BindBatch(ectx, cols, tuplesOf(terms))
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	round(exec.NewContext()) // the destination's record is made, under p.mu

	p.mu.Lock()
	done := make(chan [][]types.Tuple)
	go func() {
		rows, _ := aev.BindBatch(exec.NewContext(), cols, tuplesOf(terms))
		done <- rows
	}()
	var rows [][]types.Tuple
	select {
	case rows = <-done:
		p.mu.Unlock()
	case <-time.After(5 * time.Second):
		p.mu.Unlock()
		rows = <-done
		t.Error("a round of cache hits waited for the pump's lock")
	}
	for i, rs := range rows {
		if len(rs) != 1 || rs[0].HasPlaceholder() {
			t.Errorf("binding %d: %v, want its cached row", i, rs)
		}
	}

	ended, cancel := context.WithCancel(context.Background())
	cancel()
	before := p.Stats()
	ectx := exec.NewContextWith(ended)
	assertRecords := func(what string, want error) {
		t.Helper()
		for i, rs := range round(ectx) {
			if len(rs) != 1 || !rs[0].HasPlaceholder() {
				t.Errorf("%s, binding %d: %v, want a registered call's placeholder", what, i, rs)
			}
		}
		if len(ectx.PumpCalls) != 3 {
			t.Errorf("%s: %d calls registered, want one per distinct key", what, len(ectx.PumpCalls))
		}
		for _, id := range ectx.PumpCalls {
			if res, ok := p.Take(id); !ok || !errors.Is(res.Err, want) {
				t.Errorf("%s: call %d settled %v (%v), want %v", what, id, ok, res.Err, want)
			}
		}
		if hits := p.Stats().CacheHits - before.CacheHits; hits != 0 {
			t.Errorf("%s: %d cache hits", what, hits)
		}
	}
	assertRecords("ended context", context.Canceled)
	p.Close()
	ectx = exec.NewContext()
	assertRecords("closed pump", ErrPumpClosed)
}
