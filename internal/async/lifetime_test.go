package async

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/types"
)

// The pump keeps the goroutines it starts: one whose completion finds
// nothing to run parks on p.work until the next execution is handed to
// it, and Close and Quiesce send the parked ones home by closing it.

// runRound registers n calls of fn on p and takes every result, failing
// after 5 s with the pump's state. A gate, when not nil, holds every call
// until all n are registered: no call completes, and so no goroutine
// parks, while the round is being registered.
func runRound(t *testing.T, p *Pump, n int, gate chan struct{}, fn func() ([]types.Tuple, error)) {
	t.Helper()
	within(t, p, 5*time.Second, "a round", func() error {
		ids := make([]types.CallID, n)
		for i := range ids {
			ids[i] = p.RegisterCtx(context.Background(), "d", fmt.Sprintf("k%d", i), func() ([]types.Tuple, error) {
				if gate != nil {
					<-gate
				}
				return fn()
			})
		}
		if gate != nil {
			close(gate)
		}
		for _, id := range ids {
			if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true}); err != nil {
				return fmt.Errorf("await call %d: %v (%s)", id, err, pumpState(p))
			}
			if res, ok := p.Take(id); !ok || res.Err != nil {
				return fmt.Errorf("call %d: taken=%v err=%v", id, ok, res.Err)
			}
		}
		return nil
	})
}

// quiesceWithin runs p.Quiesce and fails the test by name if it has not
// returned within d: a parked goroutine Quiesce cannot reach, or a leaked
// slot, would otherwise hang the test binary.
func quiesceWithin(t *testing.T, p *Pump, d time.Duration) {
	t.Helper()
	within(t, p, d, "Quiesce", func() error { p.Quiesce(); return nil })
}

// within runs f on a goroutine of its own and fails the test with f's
// error, or by name and with the pump's state if f has not returned within
// d. A context bounds only a wait that watches it: a goroutine blocked on
// a lock — a pump/mailbox lock inversion — would otherwise hang the test
// binary until go test's timeout.
func within(t *testing.T, p *Pump, d time.Duration, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(d):
		t.Fatalf("%s did not return within %v (%s)", what, d, stateWithin(p, time.Second))
	}
}

// closeWithin is a test's deferred p.Close, failing the test if Close has
// not returned within d: after a failure on a deadlocked pump, Close would
// block on its lock and hang the test binary.
func closeWithin(t *testing.T, p *Pump, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Errorf("Close did not return within %v", d)
	}
}

// stateWithin is pumpState(p), or says that it was not read within d: a
// deadlocked pump may hold the lock that reading it takes.
func stateWithin(p *Pump, d time.Duration) string {
	st := make(chan string, 1)
	go func() { st <- pumpState(p) }()
	select {
	case s := <-st:
		return s
	case <-time.After(d):
		return fmt.Sprintf("pump state not read within %v: its lock is held", d)
	}
}

// waitReceiving waits until every goroutine in ids sits in run's receive
// on p.work, read off the goroutine dump.
func waitReceiving(t *testing.T, ids map[string]int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		parked := 0
		buf := make([]byte, 1<<20)
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			f := strings.Fields(g) // "goroutine", id, "[chan", "receive]:" or "receive,", "2", "minutes]:", ...
			if len(f) > 3 && ids[f[1]] > 0 && f[2] == "[chan" && strings.HasPrefix(f[3], "receive") && strings.Contains(g, "async.(*Pump).run(") {
				parked++
			}
		}
		if parked == len(ids) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d execution goroutines parked after 5 s", parked, len(ids))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPumpReusesExecutionGoroutines: two consecutive rounds of n calls
// behind a limit of k run on k goroutines in all. The first round starts
// k; once they have parked, the second round's calls are handed to them
// and start none. (Each round holds its first k calls at a gate, so none
// completes while the round is still being registered.)
func TestPumpReusesExecutionGoroutines(t *testing.T) {
	const n, k = 40, 4
	p := NewPump(k, k, nil)
	defer closeWithin(t, p, 5*time.Second)
	var mu sync.Mutex
	ran := map[string]int{}
	for round := 0; round < 2; round++ {
		runRound(t, p, n, make(chan struct{}), func() ([]types.Tuple, error) {
			mu.Lock()
			ran[goroutineID()]++
			mu.Unlock()
			return nil, nil
		})
		mu.Lock()
		if len(ran) != k {
			t.Fatalf("round %d: %d calls ran on %d goroutines (%v), want %d", round, n*(round+1), len(ran), ran, k)
		}
		mu.Unlock()
		waitReceiving(t, ran)
	}
	if st := p.Stats(); st.Started != 2*n || st.Completed != 2*n {
		t.Errorf("started %d, completed %d, want %d each", st.Started, st.Completed, 2*n)
	}
}

// TestQuiesceRetiresParkedGoroutines: after a round the pump's goroutines
// stay parked, and Quiesce alone sends them home — the pump stays open
// and starts goroutines afresh for the next round — and so does Close,
// and Close followed by Quiesce.
func TestQuiesceRetiresParkedGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := NewPump(8, 8, nil)
	defer closeWithin(t, p, 5*time.Second)
	noop := func() ([]types.Tuple, error) { return nil, nil }

	runRound(t, p, 50, nil, noop)
	if n := runtime.NumGoroutine(); n <= baseline {
		t.Fatalf("no execution goroutine parked after a round: %d goroutines, baseline %d", n, baseline)
	}
	quiesceWithin(t, p, 5*time.Second)
	leakcheck.Settle(t, baseline)

	runRound(t, p, 50, nil, noop) // the quiesced pump still runs calls
	p.Close()
	leakcheck.Settle(t, baseline) // nothing was running: Close retires them all
	quiesceWithin(t, p, 5*time.Second)
	leakcheck.Settle(t, baseline)
}

// TestQuiesceRacingCompletionsNeverHangs: Quiesce begins while executions
// are completing — as the last results are taken, when the goroutines are
// on their way from complete to their park, or with half the round still
// queued — sometimes twice at once. Every Quiesce returns, every call has
// completed by then, and no goroutine is left.
func TestQuiesceRacingCompletionsNeverHangs(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const n, k = 16, 4
	p := NewPump(k, k, nil)
	defer closeWithin(t, p, 5*time.Second)
	noop := func() ([]types.Tuple, error) { return nil, nil }
	for iter := 0; iter < 300; iter++ {
		if iter%3 != 2 {
			runRound(t, p, n, nil, noop) // the goroutines are heading for their park
		} else {
			for i := 0; i < n; i++ {
				p.RegisterCtx(context.Background(), "d", fmt.Sprintf("k%d", i), noop)
			}
		}
		if iter%4 == 0 {
			other := make(chan struct{})
			go func() {
				p.Quiesce()
				close(other)
			}()
			quiesceWithin(t, p, 5*time.Second)
			within(t, p, 5*time.Second, "a second Quiesce", func() error { <-other; return nil })
		} else {
			quiesceWithin(t, p, 5*time.Second)
		}
		if running, queued := p.Active(); running != 0 || queued != 0 {
			t.Fatalf("iteration %d: after Quiesce %d running, %d queued", iter, running, queued)
		}
	}
	if st := p.Stats(); st.Completed != 300*n {
		t.Errorf("completed %d calls, want %d", st.Completed, 300*n)
	}
	p.Close()
	quiesceWithin(t, p, 5*time.Second)
	leakcheck.Settle(t, baseline)
}

// TestPumpGoroutineBound: the pump starts a goroutine only when no parked
// one is receiving, so it never has more than MaxTotal running plus those
// caught between complete and their receive at the moment of a start.
// That window is a few instructions, so under clients that register and
// settle rounds as fast as they can — completions, retries and hedges
// racing registrations on two destinations — the goroutines the pump
// ever started stay within a small multiple of MaxTotal; a handoff that
// missed the parked goroutines would start one per execution, thousands
// here. Once they are all parked, a round within the limits starts none.
func TestPumpGoroutineBound(t *testing.T) {
	const k, clients, rounds, n = 4, 4, 150, 8
	p := NewPump(k, k-1, nil)
	defer closeWithin(t, p, 5*time.Second)
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, HedgeAfter: 50 * time.Microsecond})
	var mu sync.Mutex
	ran := map[string]int{}
	fn := func(fail bool) func() ([]types.Tuple, error) {
		return func() ([]types.Tuple, error) {
			mu.Lock()
			ran[goroutineID()]++
			mu.Unlock()
			if fail {
				return nil, transientErr{"flaky"}
			}
			return nil, nil
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			bound, stop := context.WithTimeout(context.Background(), 20*time.Second)
			defer stop()
			for r := 0; r < rounds; r++ {
				pending := make(map[types.CallID]bool, n)
				for i := 0; i < n; i++ {
					dest := []string{"a", "b"}[i%2]
					pending[p.RegisterCtx(bound, dest, fmt.Sprintf("c%d-r%d-%d", c, r, i), fn(i == 0 && r%5 == 0))] = true
				}
				for len(pending) > 0 {
					id, err := p.AwaitAnyCtx(bound, pending)
					if err != nil {
						t.Errorf("client %d round %d: %v (%s)", c, r, err, pumpState(p))
						return
					}
					p.Take(id)
					delete(pending, id)
				}
			}
		}(c)
	}
	within(t, p, 25*time.Second, "the clients", func() error { wg.Wait(); return nil })
	mu.Lock()
	started := len(ran)
	mu.Unlock()
	t.Logf("%d calls ran on %d goroutines, limit %d in flight", clients*rounds*n, started, k)
	if started > 3*k {
		t.Fatalf("more than %d goroutines: parked goroutines are not reused", 3*k)
	}

	// At steady state a round within the limits starts nothing.
	mu.Lock()
	parked := make(map[string]int, len(ran))
	for id, c := range ran {
		parked[id] = c
	}
	mu.Unlock()
	waitReceiving(t, parked)
	p.SetRetryPolicy(RetryPolicy{})
	runRound(t, p, min(k-1, len(parked)), make(chan struct{}), fn(false))
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != started {
		t.Errorf("a round at steady state started %d goroutines, want 0", len(ran)-started)
	}
}
