package async

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/types"
)

// One query's end must not fail another query's share of a coalesced
// call. In each test two registrations of one key share a call under a
// cache; A's context is cancelled while B's stays live, at a different
// point of the call's life, and B must get the rows.

// siblings registers A and B for one key on p and returns B's id and
// A's cancel.
func siblings(t *testing.T, p *Pump, fn func() ([]types.Tuple, error)) (b types.CallID, cancelA context.CancelFunc) {
	t.Helper()
	ctxA, cancelA := context.WithCancel(context.Background())
	t.Cleanup(cancelA)
	p.RegisterCtx(ctxA, "d", "shared", fn)
	b = p.RegisterCtx(context.Background(), "d", "shared", fn)
	if st := p.Stats(); st.Coalesced != 1 {
		t.Fatalf("B did not share A's execution: %+v", st)
	}
	return b, cancelA
}

// wantRows awaits B and checks it got the call's one row.
func wantRows(t *testing.T, p *Pump, b types.CallID) {
	t.Helper()
	res := await(t, p, b)
	if res.Err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
		t.Fatalf("live sibling got %+v, want the row", res)
	}
	waitSettled(t, p)
}

func TestSiblingCancelWhileQueued(t *testing.T) {
	p := NewPump(1, 1, &countingCache{m: make(map[string][]types.Tuple)})
	defer closeWithin(t, p, 5*time.Second)
	blocker, release := blockingCall()
	p.RegisterCtx(context.Background(), "d", "first", blocker)
	b, cancelA := siblings(t, p, func() ([]types.Tuple, error) {
		return []types.Tuple{{types.Int(7)}}, nil
	})
	cancelA()
	release() // the shared call's turn comes with A's context dead
	wantRows(t, p, b)
}

func TestSiblingCancelWhileRunning(t *testing.T) {
	p := NewPump(4, 4, &countingCache{m: make(map[string][]types.Tuple)})
	defer closeWithin(t, p, 5*time.Second)
	p.SetRetryPolicy(RetryPolicy{CallTimeout: time.Second})
	started, gate := make(chan struct{}), make(chan struct{})
	b, cancelA := siblings(t, p, func() ([]types.Tuple, error) {
		close(started)
		<-gate
		return []types.Tuple{{types.Int(7)}}, nil
	})
	within(t, p, 5*time.Second, "the call's start", func() error { <-started; return nil })
	cancelA()
	// B's share must not end with A's query: nothing settles B while the
	// engine call is still running.
	bound, stop := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer stop()
	if _, err := p.AwaitAnyCtx(bound, map[types.CallID]bool{b: true}); err == nil {
		res, _ := p.Take(b)
		t.Fatalf("B settled with %+v while its call was running", res)
	}
	close(gate)
	wantRows(t, p, b)
}

func TestSiblingCancelDuringBackoff(t *testing.T) {
	p := NewPump(4, 4, &countingCache{m: make(map[string][]types.Tuple)})
	defer closeWithin(t, p, 5*time.Second)
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseBackoff: 60 * time.Millisecond})
	failed := make(chan struct{})
	attempts := 0 // executions of one call never overlap here: no deadline, no hedge
	b, cancelA := siblings(t, p, func() ([]types.Tuple, error) {
		if attempts++; attempts == 1 {
			close(failed)
			return nil, transientErr{"blip"}
		}
		return []types.Tuple{{types.Int(7)}}, nil
	})
	within(t, p, 5*time.Second, "the first attempt's failure", func() error { <-failed; return nil })
	// Once the failed attempt's token is back, the call waits out its
	// 60 ms backoff.
	for deadline := time.Now().Add(time.Second); ; time.Sleep(100 * time.Microsecond) {
		if running, _ := p.Active(); running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the failed attempt kept its token: %s", pumpState(p))
		}
	}
	cancelA()
	wantRows(t, p, b)
}

// askingPeer homes every key elsewhere. Its first ask waits for the
// asker's context to end, then misses; every later ask is answered.
type askingPeer struct {
	asks atomic.Int64
}

func (*askingPeer) Remote(string) bool { return true }

func (a *askingPeer) Fetch(ctx context.Context, _, _ string) ([]types.Tuple, bool, *obs.Span) {
	if a.asks.Add(1) == 1 {
		<-ctx.Done()
		return nil, false, nil
	}
	return []types.Tuple{{types.Int(7)}}, true, nil
}

func TestSiblingCancelDuringAsk(t *testing.T) {
	p := NewPump(4, 4, &countingCache{m: make(map[string][]types.Tuple)})
	defer closeWithin(t, p, 5*time.Second)
	peer := &askingPeer{}
	p.SetCachePeer(peer)
	engine := fnSource{dest: "d", fn: func() ([]types.Tuple, error) {
		t.Error("the engine ran a call its key's home answers")
		return nil, nil
	}}
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	p.Request(ctxA, engine, "shared")
	b, _, _ := p.Request(context.Background(), engine, "shared")
	if st := p.Stats(); st.Coalesced != 1 {
		t.Fatalf("B did not share A's call: %+v", st)
	}
	cancelA() // A's ask ends with A; B still wants the call, so it is asked again
	wantRows(t, p, b)
	if n := peer.asks.Load(); n != 2 {
		t.Errorf("%d asks, want 2: A's, then B's", n)
	}
}
