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

// --- suppressed -------------------------------------------------------

func (p *pump) suppressedLeak() {
	p.grabTokenLocked("d")
	//lint:ignore slotbalance fixture: token intentionally parked for the test harness
} // the ignore comment covers the next line, where the exit check fires
