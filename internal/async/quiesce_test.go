package async

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// Quiesce must wait for every execution goroutine — including ones whose
// engine call outlives Close. Before the pump tracked executions with a
// WaitGroup, process teardown simply abandoned in-flight engine calls;
// these tests pin the accounting.

func TestQuiesceWaitsForInflightCall(t *testing.T) {
	p := newPump(t, 1, 1, nil)
	block := make(chan struct{})
	var finished atomic.Bool
	started := make(chan struct{})
	p.RegisterCtx(context.Background(), "d", "k", func() ([]types.Tuple, error) {
		close(started)
		<-block
		finished.Store(true)
		return nil, nil
	})
	<-started
	p.Close()
	quiesced := make(chan struct{})
	go func() {
		p.Quiesce()
		close(quiesced)
	}()
	select {
	case <-quiesced:
		t.Fatal("Quiesce returned while an engine call was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(block)
	select {
	case <-quiesced:
	case <-time.After(2 * time.Second):
		t.Fatal("Quiesce did not return after the engine call finished")
	}
	if !finished.Load() {
		t.Error("Quiesce returned before the call body completed")
	}
}

// A timed-out call's execution goroutine keeps running after the attempt
// returns; Quiesce must wait for that straggler too.
func TestQuiesceWaitsForTimedOutStraggler(t *testing.T) {
	p := newPump(t, 2, 2, nil)
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 1, CallTimeout: 5 * time.Millisecond})
	block := make(chan struct{})
	id := p.RegisterCtx(context.Background(), "d", "k", func() ([]types.Tuple, error) {
		<-block
		return nil, nil
	})
	if _, err := p.AwaitAnyCtx(context.Background(), map[types.CallID]bool{id: true}); err != nil {
		t.Fatal(err)
	}
	res, _ := p.Take(id)
	if res.Err == nil {
		t.Fatal("expected the call to time out")
	}
	// The attempt has answered, but the engine goroutine still holds its
	// token inside fn.
	p.Close()
	quiesced := make(chan struct{})
	go func() {
		p.Quiesce()
		close(quiesced)
	}()
	select {
	case <-quiesced:
		t.Fatal("Quiesce ignored the abandoned execution goroutine")
	case <-time.After(20 * time.Millisecond):
	}
	close(block)
	select {
	case <-quiesced:
	case <-time.After(2 * time.Second):
		t.Fatal("Quiesce did not observe the straggler finishing")
	}
}

// An idle pump quiesces immediately.
func TestQuiesceIdle(t *testing.T) {
	p := NewPump(1, 1, nil)
	p.Close()
	done := make(chan struct{})
	go func() {
		p.Quiesce()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Quiesce hung on an idle pump")
	}
}
