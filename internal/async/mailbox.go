package async

import (
	"context"
	"fmt"

	"repro/internal/lockrank"
	"repro/internal/types"
)

// mailbox is where the pump delivers the results of the calls one owner
// (a ReqSync, or one synchronous call's wait) has claimed: settlement
// appends the call under the mailbox's own lock and leaves a token in
// signal, and the owner takes what arrived, and waits for a token, without
// the pump's lock. Lock order (internal/lockrank): p.mu, then mu. A token
// may be stale: the owner looks before it waits, and waits again if it
// found nothing.
type mailbox struct {
	mu     lockrank.MailboxMu
	got    []*call
	signal chan struct{}
}

// claim makes b the owner of the calls ids, in one hold of p.mu.
func (p *Pump) claim(b *mailbox, ids ...types.CallID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range ids {
		p.claimLocked(b, id)
	}
}

// claimLocked makes b the owner of call id: settled already, it moves into
// b at once, else it is delivered there when it settles. An id the pump
// does not hold is skipped. Callers hold p.mu.
func (p *Pump) claimLocked(b *mailbox, id types.CallID) {
	if c := p.calls[id]; c != nil {
		c.owner = b
		if c.state == callDone {
			delete(p.calls, id)
			b.put(c)
		}
	}
}

// put delivers c. Callers hold p.mu.
func (b *mailbox) put(c *call) {
	b.mu.Lock()
	b.got = append(b.got, c)
	b.mu.Unlock()
	select {
	case b.signal <- struct{}{}:
	default: // a token is there already
	}
}

// take returns what was delivered since the last take and gives b buf's
// storage for the next deliveries.
func (b *mailbox) take(buf []*call) []*call {
	b.mu.Lock()
	defer b.mu.Unlock()
	got := b.got
	b.got = buf[:0]
	return got
}

// await blocks until b holds a delivery, ctx (nil means no bound) ends, or
// the pump closes, which ends it with ErrPumpClosed (wrapped).
func (b *mailbox) await(ctx context.Context, p *Pump) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	for {
		b.mu.Lock()
		n := len(b.got)
		b.mu.Unlock()
		if n > 0 {
			return nil
		}
		select {
		case <-b.signal:
		case <-done:
			return ctx.Err()
		case <-p.shut:
			return fmt.Errorf("await: %w", ErrPumpClosed)
		}
	}
}

// reset empties b and drops any token. Its owner has discarded whatever
// it still awaited, so nothing is delivered afterwards.
func (b *mailbox) reset() {
	b.mu.Lock()
	clear(b.got[:cap(b.got)])
	b.got = b.got[:0]
	b.mu.Unlock()
	select {
	case <-b.signal:
	default:
	}
}
