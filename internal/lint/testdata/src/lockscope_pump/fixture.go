// Fixture for lockscope on the pump's own lock shapes, loaded as
// "repro/internal/async": the deferred unlock around a try, the try-send
// that hands an execution to a parked goroutine under p.mu, and the
// shapes that must stay flagged — a channel wait under p.mu, a select
// under p.mu that waits or whose operands do, and a manual unlock an
// early return skips.
package async

import (
	"context"
	"sync"
)

type Pump struct {
	mu     sync.Mutex
	closed bool
	done   chan struct{}
	work   chan int
	ready  chan int
}

func (p *Pump) tryAcquire() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.closed
}

// handOff gives a parked goroutine its next execution if one is receiving,
// else starts one: a try-send never parks.
func (p *Pump) handOff(e int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case p.work <- e:
	default:
		go p.run(e)
	}
}

func (p *Pump) run(e int) {}

// handOffBlocking waits for a parked goroutine with p.mu held.
func (p *Pump) handOffBlocking(e int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	select { // want "select while holding p.mu"
	case p.work <- e:
	case <-p.done:
	}
}

// handOffReceived has a default, but Go evaluates the send's value on
// entering the select: the receive from p.ready waits with p.mu held.
func (p *Pump) handOffReceived() {
	p.mu.Lock()
	defer p.mu.Unlock()
	select { // want "select while holding p.mu"
	case p.work <- <-p.ready:
	default:
	}
}

// handOffFetched has a default, but the value is a call, run with p.mu
// held before the select looks at the default (a network fetch, say).
func (p *Pump) handOffFetched(ctx context.Context) {
	p.mu.Lock()
	defer p.mu.Unlock()
	select { // want "select while holding p.mu"
	case p.work <- p.fetch(ctx):
	default:
	}
}

func (p *Pump) fetch(ctx context.Context) int { return 0 }

// tryTake is a try-receive under p.mu: not the pump's handoff, so flagged.
func (p *Pump) tryTake() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	select { // want "select while holding p.mu"
	case e := <-p.work:
		return e
	default:
		return 0
	}
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
