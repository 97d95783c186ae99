//go:build goexperiment.synctest

//go:debug asynctimerchan=0

package async

import (
	"context"
	"testing"
	"testing/synctest"
	"time"

	"repro/internal/types"
)

// TestHedgeAfterCancelTakesNoSlot runs on the fake clock of a synctest
// bubble (GOEXPERIMENT=synctest go test ./internal/async): a call whose
// context ends before its hedge timer fires is wanted by nobody, so the
// timer must start no hedge and take no slot. Once the primary's engine
// call returns, the pump must be empty.
func TestHedgeAfterCancelTakesNoSlot(t *testing.T) {
	synctest.Run(func() {
		p := NewPump(8, 8, nil)
		defer func() {
			p.Close()
			p.Quiesce()
		}()
		p.SetRetryPolicy(RetryPolicy{MaxAttempts: 1, HedgeAfter: 10 * time.Millisecond})
		ctx, cancel := context.WithCancel(context.Background())
		p.RegisterCtx(ctx, "d", "k", func() ([]types.Tuple, error) {
			time.Sleep(50 * time.Millisecond)
			return nil, nil
		})
		time.Sleep(5 * time.Millisecond)
		cancel()
		time.Sleep(time.Second) // past the hedge timer and the engine's return
		synctest.Wait()
		if running, queued := p.Active(); running != 0 || queued != 0 {
			t.Errorf("Active() = (%d,%d) after the engine returned, want (0,0) (%s)", running, queued, pumpState(p))
		}
		if st := p.Stats(); st.Hedges != 0 {
			t.Errorf("Hedges = %d for a call nobody wanted, want 0", st.Hedges)
		}
	})
}
