// Fixture for lockscope on the pump's own lock shapes, loaded as
// "repro/internal/async": the one blocking wait (a cond.Wait loop under
// p.mu, exempt because Wait lets go of the mutex), the deferred unlock
// around a try, and the two shapes that must stay flagged — the
// hand-rolled channel wait under p.mu that the cond replaced, and a
// manual unlock an early return skips.
package async

import (
	"context"
	"sync"
)

type Pump struct {
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	done   chan struct{}
}

func (p *Pump) await(ctx context.Context, try func() bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if try() {
			return nil
		}
		p.cond.Wait()
	}
}

func (p *Pump) wake() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cond.Broadcast()
}

func (p *Pump) tryAcquire() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.closed
}

// awaitOnChannel parks on a channel with p.mu held: every registration
// and every completion queues up behind one waiter.
func (p *Pump) awaitOnChannel(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	select { // want "select while holding p.mu"
	case <-p.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *Pump) closeOnce() bool {
	p.mu.Lock()
	if p.closed {
		return false // want "has no Unlock"
	}
	p.closed = true
	p.mu.Unlock()
	return true
}
