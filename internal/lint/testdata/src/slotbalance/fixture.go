// Fixture package for the slotbalance rule: loaded by lint_test as
// "repro/internal/async" so the rule's scope and the Pump-shaped method
// names apply. Inline want-markers name the expected diagnostics.
package async

import "errors"

var errFail = errors.New("fail")

type pump struct{ dest string }

func (p *pump) grabTokenLocked(dest string)      {}
func (p *pump) acquireToken(dest string) error   { return nil }
func (p *pump) tryAcquireToken(dest string) bool { return true }
func (p *pump) releaseToken(dest string)         {}
func (p *pump) dropTokenLocked(dest string)      {}

// run is a releaser by summary (it transitively calls releaseToken), so
// handing a token to it counts as a release.
func (p *pump) run() { p.finish() }

func (p *pump) finish() { p.releaseToken("d") }

// complete is a releaser too: its critical section drops the token the
// execution still holds.
func (p *pump) complete() { p.dropTokenLocked("d") }

// --- positives --------------------------------------------------------

func (p *pump) leakOnEarlyReturn(fail bool) error {
	p.grabTokenLocked("d")
	if fail {
		return errFail // want "not released or handed off"
	}
	p.releaseToken("d")
	return nil
}

func (p *pump) leakAtEnd() {
	p.grabTokenLocked("d")
} // want "not released or handed off"

func (p *pump) leakInTryBranch() {
	if p.tryAcquireToken("d") {
		p.dest = "won"
	}
} // want "not released or handed off"

func (p *pump) leakAfterErrAcquire(c *pump) error {
	if err := p.acquireToken("d"); err != nil {
		return err
	}
	return nil // want "not released or handed off"
}

func (p *pump) leakInSelectBranch(ch chan int) {
	p.grabTokenLocked("d")
	select {
	case <-ch:
		p.releaseToken("d")
	case v := <-ch:
		_ = v
		return // want "not released or handed off"
	}
}

func (p *pump) leakBeforeCompletion(fail bool) {
	if err := p.acquireToken("d"); err != nil {
		return
	}
	if fail {
		return // want "not released or handed off"
	}
	p.complete()
}

// The hedge branch's "outcome already there" exit (DESIGN.md §7, mutant
// slot2): the token just won is not needed after all, and the early
// return forgets to give it back. No test sees this one.
func (p *pump) leakWhenHedgeFindsOutcome(ch chan int, hedge chan int) int {
	for {
		select {
		case v := <-ch:
			return v
		case <-hedge:
			if p.tryAcquireToken("d") {
				select {
				case v := <-ch:
					return v // want "not released or handed off"
				default:
				}
				go p.run()
			}
		}
	}
}

// The inline retry loop with its release dropped (mutant slot1): the
// failed attempt keeps its token across the backoff and the next
// iteration acquires a second one. complete() after the loop may release,
// which is why the exit check alone never saw it.
func (p *pump) leakAcrossRetry(attempts int, hedging bool) {
	inline := !hedging
	for i := 0; ; i++ {
		if i > 0 {
			if err := p.acquireToken("d"); err != nil { // want "still held when this call acquires another"
				break
			}
		}
		if inline {
			p.dest = "attempt"
		} else {
			p.run()
		}
		if i+1 >= attempts {
			break
		}
	}
	p.complete()
}

// A token taken before the expiry check rides the continue into the next
// iteration's acquire (mutant slot3).
func (p *pump) leakOnContinue(queue []bool) {
	for _, expired := range queue {
		p.grabTokenLocked("d") // want "still held when this call acquires another"
		if expired {
			continue
		}
		go p.run()
	}
} // want "not released or handed off"

// --- negatives --------------------------------------------------------

func (p *pump) heldUntilCompletion(attempts int) {
	for i := 0; ; i++ {
		if i > 0 {
			if err := p.acquireToken("d"); err != nil {
				break
			}
		}
		if i+1 >= attempts {
			break
		}
		p.releaseToken("d")
	}
	p.complete()
}

func (p *pump) releasedOnAllPaths(fail bool) error {
	p.grabTokenLocked("d")
	if fail {
		p.releaseToken("d")
		return errFail
	}
	p.releaseToken("d")
	return nil
}

func (p *pump) deferredRelease() {
	p.grabTokenLocked("d")
	defer p.releaseToken("d")
	p.dest = "work"
}

func (p *pump) handoffToGoroutine() {
	p.grabTokenLocked("d")
	go p.run()
}

func (p *pump) handoffToGoLiteral() {
	p.grabTokenLocked("d")
	go func() {
		p.releaseToken("d")
	}()
}

func (p *pump) errAcquirePattern() error {
	if err := p.acquireToken("d"); err != nil {
		return err
	}
	p.releaseToken("d")
	return nil
}

func (p *pump) tryBranchReleases() {
	if p.tryAcquireToken("d") {
		p.releaseToken("d")
	}
}

func (p *pump) localClosureHandoff() {
	launch := func() {
		go func() {
			p.releaseToken("d")
		}()
	}
	p.grabTokenLocked("d")
	launch()
}

func (p *pump) retryLoop(attempts int) error {
	for i := 0; i < attempts; i++ {
		if err := p.acquireToken("d"); err != nil {
			return err
		}
		p.finish()
	}
	return nil
}

// The pump's real retry loop: under inline the attempt runs on this
// goroutine's token and a failed one releases it before the backoff;
// otherwise the attempt's own goroutine does. Read path-insensitively
// (inline, then not inline) the token would seem to survive the iteration.
func (p *pump) retryLoopByMode(attempts int, hedging bool) {
	inline := !hedging
	for i := 0; ; i++ {
		if i > 0 {
			if err := p.acquireToken("d"); err != nil {
				break
			}
		}
		if inline {
			p.dest = "attempt"
		} else {
			p.run()
		}
		if i+1 >= attempts {
			break
		}
		if inline {
			p.releaseToken("d")
		}
	}
	p.complete()
}

func (p *pump) expiredSkippedBeforeAcquire(queue []bool) {
	for _, expired := range queue {
		if expired {
			continue
		}
		p.grabTokenLocked("d")
		go p.run()
	}
}
