package async

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/types"
)

// transientErr is a retryable failure for tests (the search package's
// FaultError plays this role in production).
type transientErr struct{ msg string }

func (e transientErr) Error() string   { return e.msg }
func (e transientErr) Transient() bool { return true }

// await runs one registered call to completion and returns its outcome.
func await(t *testing.T, p *Pump, id types.CallID) CallResult {
	t.Helper()
	// The scripted calls take their backoffs, tens of milliseconds: one
	// not done in 5 s waits for a slot that is not coming back.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := p.AwaitAnyCtx(ctx, map[types.CallID]bool{id: true})
	if err != nil {
		t.Fatalf("AwaitAny: %v (%s)", err, pumpState(p))
	}
	res, ok := p.Take(got)
	if !ok {
		t.Fatalf("Take(%d) found nothing", got)
	}
	return res
}

func TestRetryMasksTransientFailures(t *testing.T) {
	p := newPump(t, 4, 4, nil)
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond})
	var mu sync.Mutex
	calls := 0
	id := p.RegisterCtx(context.Background(), "d", "k", func() ([]types.Tuple, error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls <= 2 {
			return nil, transientErr{"engine unavailable"}
		}
		return []types.Tuple{{types.Int(7)}}, nil
	})
	res := await(t, p, id)
	if res.Err != nil {
		t.Fatalf("retries should have masked the transient failures: %v", res.Err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
		t.Fatalf("rows = %v", res.Rows)
	}
	st := p.Stats()
	if st.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", st.Retries)
	}
	if st.CallsFailed != 0 {
		t.Fatalf("CallsFailed = %d, want 0", st.CallsFailed)
	}
}

func TestHardErrorNotRetried(t *testing.T) {
	p := newPump(t, 4, 4, nil)
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond})
	var mu sync.Mutex
	calls := 0
	id := p.RegisterCtx(context.Background(), "d", "k", func() ([]types.Tuple, error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		return nil, errors.New("permanent schema error")
	})
	res := await(t, p, id)
	if res.Err == nil {
		t.Fatal("hard error should propagate")
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("hard error retried: %d calls", calls)
	}
	if st := p.Stats(); st.Retries != 0 || st.CallsFailed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetryExhaustionReportsAttempts(t *testing.T) {
	p := newPump(t, 4, 4, nil)
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	id := p.RegisterCtx(context.Background(), "d", "k", func() ([]types.Tuple, error) {
		return nil, transientErr{"still down"}
	})
	res := await(t, p, id)
	if res.Err == nil {
		t.Fatal("exhausted retries should fail the call")
	}
	if !strings.Contains(res.Err.Error(), "after 3 attempts") {
		t.Fatalf("error should mention attempt count: %v", res.Err)
	}
	if st := p.Stats(); st.Retries != 2 || st.CallsFailed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCallTimeoutAbandonsStalledAttempt(t *testing.T) {
	p := newPump(t, 4, 4, nil)
	p.SetRetryPolicy(RetryPolicy{
		MaxAttempts: 2,
		BaseBackoff: time.Millisecond,
		CallTimeout: 30 * time.Millisecond,
	})
	var mu sync.Mutex
	calls := 0
	release := make(chan struct{})
	id := p.RegisterCtx(context.Background(), "d", "k", func() ([]types.Tuple, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			<-release // stall until the test lets go
		}
		return []types.Tuple{{types.Int(int64(n))}}, nil
	})
	res := await(t, p, id)
	if res.Err != nil {
		t.Fatalf("retry after timeout should succeed: %v", res.Err)
	}
	if res.Rows[0][0].I != 2 {
		t.Fatalf("result should come from the second attempt, got %v", res.Rows)
	}
	st := p.Stats()
	if st.CallTimeouts != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The abandoned goroutine still holds its token until it returns.
	if running, _ := p.Active(); running != 1 {
		t.Fatalf("abandoned attempt should hold its slot, Active = %d", running)
	}
	close(release)
	waitSettled(t, p)
}

// waitSettled polls until the pump reports no running or queued calls.
func waitSettled(t *testing.T, p *Pump) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		running, queued := p.Active()
		if running == 0 && queued == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pump did not settle: %s", pumpState(p))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCallTimeoutExhaustionIsTransientError(t *testing.T) {
	p := newPump(t, 4, 4, nil)
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 1, CallTimeout: 10 * time.Millisecond})
	release := make(chan struct{})
	defer close(release)
	id := p.RegisterCtx(context.Background(), "d", "k", func() ([]types.Tuple, error) {
		<-release
		return nil, nil
	})
	res := await(t, p, id)
	if !errors.Is(res.Err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", res.Err)
	}
	if !IsTransient(res.Err) {
		t.Fatal("call timeouts should classify as transient")
	}
}

func TestHedgeWinsAgainstSlowPrimary(t *testing.T) {
	p := newPump(t, 8, 8, nil)
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 1, HedgeAfter: 10 * time.Millisecond})
	var mu sync.Mutex
	calls := 0
	release := make(chan struct{})
	defer close(release)
	id := p.RegisterCtx(context.Background(), "d", "k", func() ([]types.Tuple, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			<-release // the primary never finishes on its own
		}
		return []types.Tuple{{types.Int(int64(n))}}, nil
	})
	res := await(t, p, id)
	if res.Err != nil {
		t.Fatalf("hedge should have completed the call: %v", res.Err)
	}
	if res.Rows[0][0].I != 2 {
		t.Fatalf("winning row should come from the hedge, got %v", res.Rows)
	}
	st := p.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHedgeRespectsDestinationLimit(t *testing.T) {
	// One slot for the destination: the primary occupies it, so the hedge
	// must never launch.
	p := newPump(t, 8, 1, nil)
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 1, HedgeAfter: 5 * time.Millisecond})
	var mu sync.Mutex
	calls := 0
	id := p.RegisterCtx(context.Background(), "d", "k", func() ([]types.Tuple, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		time.Sleep(40 * time.Millisecond)
		return nil, nil
	})
	res := await(t, p, id)
	if res.Err != nil {
		t.Fatalf("call failed: %v", res.Err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("hedge launched despite a full destination: %d executions", calls)
	}
	if st := p.Stats(); st.Hedges != 0 {
		t.Fatalf("Hedges = %d, want 0", st.Hedges)
	}
}

func TestRetryBackoffReleasesSlotForOtherCalls(t *testing.T) {
	// Destination limit 1. Call A fails transiently and backs off for a
	// long time; during A's backoff, call B must get the slot and finish.
	p := newPump(t, 8, 1, nil)
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseBackoff: 80 * time.Millisecond})
	bDone := make(chan time.Time, 1)
	var aFirstFail time.Time
	var mu sync.Mutex
	idA := p.RegisterCtx(context.Background(), "d", "a", func() ([]types.Tuple, error) {
		mu.Lock()
		defer mu.Unlock()
		if aFirstFail.IsZero() {
			aFirstFail = time.Now()
			return nil, transientErr{"blip"}
		}
		return []types.Tuple{{types.Int(1)}}, nil
	})
	idB := p.RegisterCtx(context.Background(), "d", "b", func() ([]types.Tuple, error) {
		bDone <- time.Now()
		return []types.Tuple{{types.Int(2)}}, nil
	})
	resA := await(t, p, idA)
	resB := await(t, p, idB)
	if resA.Err != nil || resB.Err != nil {
		t.Fatalf("errs: %v, %v", resA.Err, resB.Err)
	}
	bAt := <-bDone
	mu.Lock()
	defer mu.Unlock()
	// B ran while A was still backing off (well before the 80ms backoff
	// elapsed) — the slot was not held across the backoff.
	if bAt.Sub(aFirstFail) > 60*time.Millisecond {
		t.Fatalf("B waited %v after A's failure; backoff is hoarding the slot", bAt.Sub(aFirstFail))
	}
}

func TestBackoffSchedule(t *testing.T) {
	pol := RetryPolicy{BaseBackoff: 10 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 80, 160}
	for i, w := range want {
		if got := pol.backoff(i); got != w*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

// TestJitteredBackoffSeeded: the backoff jitter comes from the pump's own
// seeded stream, so two fresh pumps with the same policy wait out the
// same delays — a fault schedule replays with its timing.
func TestJitteredBackoffSeeded(t *testing.T) {
	pol := RetryPolicy{BaseBackoff: time.Second, JitterFrac: 0.5}
	draw := func() []time.Duration {
		p := NewPump(1, 1, nil)
		defer p.Close()
		var ds []time.Duration
		for i := 0; i < 16; i++ {
			ds = append(ds, p.jitteredBackoff(pol, 0)) // 1 s before jitter
		}
		return ds
	}
	a, b := draw(), draw()
	jittered := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: %v and %v from two fresh pumps", i, a[i], b[i])
		}
		jittered = jittered || a[i] != time.Second
	}
	if !jittered {
		t.Error("no draw carried jitter")
	}
}

func TestIsTransientClassification(t *testing.T) {
	if IsTransient(nil) {
		t.Error("nil is not transient")
	}
	if IsTransient(errors.New("boom")) {
		t.Error("plain errors are not transient")
	}
	if !IsTransient(transientErr{"x"}) {
		t.Error("Transient() errors are transient")
	}
	if !IsTransient(ErrCallTimeout) {
		t.Error("call timeouts are transient")
	}
}
