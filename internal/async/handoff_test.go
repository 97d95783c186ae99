package async

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/types"
)

// The completion handoff: a finishing execution returns its token and, in
// the same critical section, takes the next queued call the limits allow
// and runs it on its own goroutine.

// TestHandoffProperties queues n ≫ k calls for two destinations behind a
// per-destination limit k and a total limit that binds when both are busy,
// holds the first wave at a gate, and — before opening it — cancels the
// contexts of some queued calls, so a finishing execution finds a dead
// successor at the head of the queue. The scenarios add a Discard of
// queued calls, SetDestLimit(dest, 0), or a Close racing the handoffs.
// Whatever happens: a destination's calls start in registration order (a
// call starts only once all but at most k-1 earlier ones have), in-flight
// never exceeds either limit, a call that was cancelled or discarded while
// queued never runs, and afterwards the pump holds nothing and the
// goroutines are back at their baseline. Every seed runs under the zero
// retry policy and again under wsqd's (wsqdPolicy).
func TestHandoffProperties(t *testing.T) {
	scenarios := []string{"drain", "discard", "limit0", "close"}
	dests := []string{"a", "b"}
	retries := []struct {
		suffix string
		pol    RetryPolicy
	}{{"", RetryPolicy{}}, {"/wsqd", wsqdPolicy}}
	for iter := 0; iter < 2*32 && !t.Failed(); iter++ { // stops at the first failing seed, as in property_test.go
		seed, scenario, retry := int64(7100+iter%32), scenarios[iter%4], retries[iter/32]
		t.Run(fmt.Sprintf("seed=%d/%s%s", seed, scenario, retry.suffix), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			rng := rand.New(rand.NewSource(seed))
			k := 1 + rng.Intn(3)
			total := k + rng.Intn(k+1)
			n := 20 + rng.Intn(30)
			p := NewPump(total, k, nil)
			defer p.Close()
			p.SetRetryPolicy(retry.pol)

			type rec struct {
				id            types.CallID
				dest          int
				cancel        context.CancelFunc
				started, skip bool // skip: taken out while queued, must never run
			}
			var (
				mu       sync.Mutex // guards every rec's flags and the counts below
				calls    = make([]*rec, n)
				inflight [2]int
				broken   []string
				gate     = make(chan struct{})
			)
			for i := range calls {
				i, r := i, &rec{dest: rng.Intn(2)}
				calls[i] = r
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				r.cancel = cancel
				r.id = p.RegisterCtx(ctx, dests[r.dest], fmt.Sprintf("k%d", i), func() ([]types.Tuple, error) {
					mu.Lock()
					r.started = true
					inflight[r.dest]++
					if inflight[r.dest] > k || inflight[0]+inflight[1] > total {
						broken = append(broken, fmt.Sprintf("call %d: in flight %v, limits %d per destination, %d total", i, inflight, k, total))
					}
					if r.skip {
						broken = append(broken, fmt.Sprintf("call %d ran after it was cancelled or discarded in the queue", i))
					}
					behind := 0
					for _, e := range calls[:i] {
						if e.dest == r.dest && !e.started && !e.skip {
							behind++
						}
					}
					if behind > k-1 {
						broken = append(broken, fmt.Sprintf("call %d started with %d earlier calls of its destination still queued (limit %d)", i, behind, k))
					}
					mu.Unlock()
					<-gate
					mu.Lock()
					inflight[r.dest]--
					mu.Unlock()
					return nil, nil
				})
			}

			// With the gate shut nothing completes, so what is queued stays
			// queued while the scenario picks its victims.
			queued := func(r *rec) bool {
				p.mu.Lock()
				defer p.mu.Unlock()
				return p.calls[r.id].state == callQueued
			}
			mu.Lock()
			var discarded, parked []types.CallID
			for _, r := range calls {
				if !queued(r) {
					continue
				}
				switch {
				case scenario == "limit0" && r.dest == 0:
					r.skip = true
					parked = append(parked, r.id)
					if rng.Intn(8) == 0 {
						r.cancel() // stays queued all the same: its turn never comes
					}
				case rng.Intn(8) == 0:
					r.skip = true
					r.cancel()
				case scenario == "discard" && rng.Intn(4) == 0:
					r.skip = true
					discarded = append(discarded, r.id)
				}
			}
			mu.Unlock()
			p.Discard(discarded...)
			if scenario == "limit0" {
				p.SetDestLimit(dests[0], 0)
			}

			close(gate)
			if scenario == "close" {
				p.Close()
			}
			// The calls return at once now the gate is open: a call still not
			// done after 5 s is queued behind a slot nobody will free.
			bound, stop := context.WithTimeout(context.Background(), 5*time.Second)
			defer stop()
			for _, r := range calls {
				mu.Lock()
				skip := r.skip
				mu.Unlock()
				if scenario == "close" || slices.Contains(parked, r.id) || slices.Contains(discarded, r.id) {
					continue
				}
				if _, err := p.AwaitAnyCtx(bound, map[types.CallID]bool{r.id: true}); err != nil {
					t.Fatalf("await call %d: %v (%s)", r.id, err, pumpState(p))
				}
				res, ok := p.Take(r.id)
				if !ok {
					t.Fatalf("call %d signalled done but cannot be taken", r.id)
				}
				if skip != errors.Is(res.Err, context.Canceled) {
					t.Errorf("call %d: cancelled in the queue = %v, result error %v", r.id, skip, res.Err)
				}
			}
			if scenario == "limit0" {
				// The parked destination's calls are all that is left, still
				// queued; their owner lets go of them.
				if running, q := p.Active(); running != 0 || q != len(parked) {
					t.Errorf("limit 0: %d running, %d queued, want 0 and %d", running, q, len(parked))
				}
				p.Discard(parked...)
			}

			p.Quiesce()
			for _, r := range calls {
				p.Discard(r.id) // close scenario: whatever is parked; a no-op otherwise
			}
			if running, q := p.Active(); running != 0 || q != 0 {
				t.Errorf("after Quiesce: %d running, %d queued", running, q)
			}
			if held := p.Held(); held != 0 {
				t.Errorf("%d call records still held", held)
			}
			mu.Lock()
			for _, b := range broken {
				t.Error(b)
			}
			for i, r := range calls {
				if scenario != "close" && r.started == r.skip {
					t.Errorf("call %d: started = %v, taken out while queued = %v", i, r.started, r.skip)
				}
			}
			mu.Unlock()
			leakcheck.Settle(t, baseline)
		})
	}
}

// goroutineID reads the running goroutine's id off its stack header
// ("goroutine 42 [running]:").
func goroutineID() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// TestHandoffRunsQueueOnOneGoroutine: n calls queued behind a limit of 1
// are all run by the one execution goroutine the first call was given —
// each completion hands it the next call — not by a goroutine apiece.
func TestHandoffRunsQueueOnOneGoroutine(t *testing.T) {
	const n = 40
	p := NewPump(4, 1, nil)
	defer p.Close()
	gate := make(chan struct{})
	var mu sync.Mutex
	ran := map[string]int{}
	ids := make([]types.CallID, n)
	for i := range ids {
		ids[i] = p.RegisterCtx(context.Background(), "d", fmt.Sprintf("k%d", i), func() ([]types.Tuple, error) {
			<-gate
			mu.Lock()
			ran[goroutineID()]++
			mu.Unlock()
			return nil, nil
		})
	}
	if running, queued := p.Active(); running != 1 || queued != n-1 {
		t.Fatalf("before the gate opens: %d running, %d queued, want 1 and %d", running, queued, n-1)
	}
	close(gate)
	bound, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	for _, id := range ids {
		if _, err := p.AwaitAnyCtx(bound, map[types.CallID]bool{id: true}); err != nil {
			t.Fatalf("await call %d: %v (%s)", id, err, pumpState(p))
		}
		p.Take(id)
	}
	p.Quiesce()
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 1 {
		t.Errorf("%d calls ran on %d goroutines (%v), want 1", n, len(ran), ran)
	}
	if st := p.Stats(); st.Started != n || st.Completed != n {
		t.Errorf("started %d, completed %d, want %d each", st.Started, st.Completed, n)
	}
}
