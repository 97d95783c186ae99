package async

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/schema"
	"repro/internal/types"
)

// takeAll returns the ids b holds, emptying it.
func takeAll(b *mailbox) []types.CallID { return idsOf(b.take(nil)) }

func idsOf(cs []*call) []types.CallID {
	ids := make([]types.CallID, len(cs))
	for i, c := range cs {
		ids[i] = c.id
	}
	return ids
}

// keyedPlan is ReqSync(DependentJoin(Values(terms), AEVScan(src))).
func keyedPlan(src *keyedSource, p *Pump, terms ...string) *ReqSync {
	aev, cols := keyScan(src, p)
	dj := exec.NewDependentJoin(exec.NewValuesScan(schema.New(cols...), tuplesOf(terms)), aev, "")
	return syncOver(dj, p, aev.FilledAttrs())
}

// TestMailboxClaimAfterSettle: a call that settled before anyone claimed
// it waits in the call table, and the claim moves it into the mailbox
// once; claiming it again delivers nothing, and the pump holds nothing.
func TestMailboxClaimAfterSettle(t *testing.T) {
	p := newPump(t, 4, 4, nil)
	id := p.RegisterCtx(context.Background(), "d", "k", func() ([]types.Tuple, error) {
		return []types.Tuple{{types.Int(7)}}, nil
	})
	quiesceWithin(t, p, 5*time.Second) // the call has run and settled
	if held := p.Held(); held != 1 {
		t.Fatalf("Held() = %d before the claim, want the settled call's record", held)
	}
	b := &mailbox{signal: make(chan struct{}, 1)}
	p.claim(b, id)
	got := b.take(nil)
	if len(got) != 1 || got[0].id != id || got[0].res.Err != nil || got[0].res.Rows[0][0].I != 7 {
		t.Fatalf("claim delivered %v, want call %d with its row", idsOf(got), id)
	}
	p.claim(b, id)
	if again := takeAll(b); len(again) != 0 {
		t.Errorf("a second claim delivered %v", again)
	}
	if _, ok := p.Take(id); ok {
		t.Error("Take found a result already delivered")
	}
	if held := p.Held(); held != 0 {
		t.Errorf("Held() = %d after delivery, want 0", held)
	}
}

// TestCoalesceDeliversToEachLiveOwnerOnce: three queries register one key
// on a cache-backed pump while its one execution is held, and each claims
// its call into a mailbox of its own; the third then discards its call.
// The execution's result reaches the two live mailboxes exactly once each,
// and the discarded owner's mailbox stays empty.
func TestCoalesceDeliversToEachLiveOwnerOnce(t *testing.T) {
	gate := make(chan struct{})
	execs := 0
	fn := func() ([]types.Tuple, error) {
		<-gate
		execs++
		return []types.Tuple{{types.Int(1)}}, nil
	}
	p := newPump(t, 4, 4, &countingCache{m: map[string][]types.Tuple{}})
	ctx := context.Background()
	ids := [3]types.CallID{}
	boxes := [3]*mailbox{}
	for q := range ids {
		ids[q] = p.RegisterCtx(ctx, "d", "shared", fn)
		boxes[q] = &mailbox{signal: make(chan struct{}, 1)}
		p.claim(boxes[q], ids[q])
	}
	p.Discard(ids[2])
	close(gate)
	quiesceWithin(t, p, 5*time.Second)
	for q := 0; q < 2; q++ {
		if got := takeAll(boxes[q]); len(got) != 1 || got[0] != ids[q] {
			t.Errorf("query %d's mailbox holds %v, want its call %d once", q, got, ids[q])
		}
	}
	if got := takeAll(boxes[2]); len(got) != 0 {
		t.Errorf("the discarded owner's mailbox holds %v, want nothing", got)
	}
	if execs != 1 {
		t.Errorf("%d executions, want 1", execs)
	}
	if st := p.Stats(); st.Coalesced != 2 {
		t.Errorf("Coalesced = %d, want 2", st.Coalesced)
	}
	if held := p.Held(); held != 0 {
		t.Errorf("Held() = %d, want 0", held)
	}
}

// TestMailboxCloseWakesReqSync: a ReqSync waiting on its mailbox for a
// call that is still running wakes with ErrPumpClosed when the pump
// closes.
func TestMailboxCloseWakesReqSync(t *testing.T) {
	p := newPump(t, 4, 4, nil)
	src := newKeyedSource()
	release := make(chan struct{})
	src.gate["K|x"] = release
	r := keyedPlan(src, p, "x")
	ectx := exec.NewContext()
	if err := r.Open(ectx); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, _, err := r.NextBatch(ectx, 8)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it reach the wait
	closeWithin(t, p, 5*time.Second)
	select {
	case err := <-errc:
		if !errors.Is(err, ErrPumpClosed) {
			t.Errorf("NextBatch after Close: %v, want ErrPumpClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("the ReqSync was not woken by Close")
		<-errc
	}
	close(release)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	quiesceWithin(t, p, 5*time.Second)
}

// TestMailboxReopenedReqSync: a ReqSync closed before it read its
// results — one already delivered into its mailbox, or one still running
// that settles afterwards — never hands them to its next execution, which
// settles exactly its own call.
func TestMailboxReopenedReqSync(t *testing.T) {
	for _, tc := range []struct {
		name      string
		unsettled bool // close while the first execution's call still runs
	}{{"delivered", false}, {"settles after Close", true}} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPump(t, 4, 4, nil)
			src := newKeyedSource()
			release := make(chan struct{})
			if tc.unsettled {
				src.gate["K|x"] = release
			}
			r := keyedPlan(src, p, "x")
			if err := r.Open(exec.NewContext()); err != nil {
				t.Fatal(err)
			}
			if !tc.unsettled {
				quiesceWithin(t, p, 5*time.Second) // the call has settled into the mailbox
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			src.mu.Lock()
			delete(src.gate, "K|x")
			src.mu.Unlock()
			close(release)
			quiesceWithin(t, p, 5*time.Second)

			rows := runOp(t, r)
			if len(rows) != 1 || rows[0][2].I != 3 {
				t.Errorf("second execution: %v, want one row of length 3", rows)
			}
			if n := r.SpanExtras()["settled"]; n != 1 {
				t.Errorf("settled %d calls over both executions, want 1: the second's own", n)
			}
			if held := p.Held(); held != 0 {
				t.Errorf("Held() = %d, want 0", held)
			}
		})
	}
}
