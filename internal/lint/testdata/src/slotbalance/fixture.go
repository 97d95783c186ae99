// Fixture package for the slotbalance rule: loaded by lint_test as
// "repro/internal/async" so the rule's scope and the Pump-shaped names
// apply. Inline want-markers name the expected diagnostics.
package async

import "errors"

var errFail = errors.New("fail")

type pump struct {
	hedges int
	work   chan execution // parked execution goroutines receive here
}

type call struct{ wanted bool }

// execution carries the token it was started with, as in the pump.
type execution struct {
	c     *call
	hedge bool
}

func (p *pump) grabTokenLocked(dest string) {}
func (p *pump) dropTokenLocked(dest string) {}
func (p *pump) run(e execution)             {}
func (p *pump) settle(c *call)              {}

// --- positives --------------------------------------------------------

func (p *pump) leakOnEarlyReturn(fail bool) error {
	p.grabTokenLocked("d")
	if fail {
		return errFail // want "not released or handed off"
	}
	p.dropTokenLocked("d")
	return nil
}

func (p *pump) leakAtEnd() {
	p.grabTokenLocked("d")
} // want "not released or handed off"

// The hedge timer takes a token and starts nothing with it (DESIGN.md §7,
// mutant slot4).
func (p *pump) hedgeStartsNothing(free bool) {
	if free {
		p.grabTokenLocked("d")
		p.hedges++
	}
} // want "not released or handed off"

// The hedge timer takes the token before it asks whether anybody still
// wants the call, and leaves if nobody does (mutant slot5). No test hedges
// a call every query has let go of.
func (p *pump) hedgeGrabsBeforeWantedCheck(c *call, free bool) {
	if free {
		p.grabTokenLocked("d")
		if !c.wanted {
			return // want "not released or handed off"
		}
		e := execution{c: c, hedge: true}
		select {
		case p.work <- e:
		default:
			go p.run(e)
		}
	}
}

// A parked goroutine gets the execution if one is receiving; otherwise
// the token stays behind with nobody to run it.
func (p *pump) sendOrLeak(c *call) {
	p.grabTokenLocked("d")
	select {
	case p.work <- execution{c: c}:
	default:
		p.hedges++
	}
} // want "not released or handed off"

// A send of something other than the execution carries no token.
func (p *pump) sendsTheWrongThing(c *call, wake chan *call) {
	p.grabTokenLocked("d")
	wake <- c
} // want "not released or handed off"

// The dispatch walk takes the token before it asks whether anybody still
// wants the call (mutant slot3): the dropped call's token rides the
// continue into the next iteration's acquire.
func (p *pump) grabBeforeWantedCheck(queue []*call, handoff bool) execution {
	for _, c := range queue {
		p.grabTokenLocked("d") // want "still held when this call acquires another"
		if !c.wanted {
			p.settle(c)
			continue
		}
		e := execution{c: c}
		if handoff {
			return e
		}
		go p.run(e)
	}
	return execution{} // want "not released or handed off"
}

// --- negatives --------------------------------------------------------

func (p *pump) releasedOnAllPaths(fail bool) error {
	p.grabTokenLocked("d")
	if fail {
		p.dropTokenLocked("d")
		return errFail
	}
	p.dropTokenLocked("d")
	return nil
}

// The pump's dispatch walk: a call nobody wants is dropped before it
// takes a token, and the token leaves with the execution — to a parked
// goroutine, to a new one, or to the caller whose slot it fills.
func (p *pump) dispatchLocked(queue []*call, handoff bool) execution {
	for _, c := range queue {
		if !c.wanted {
			p.settle(c)
			continue
		}
		p.grabTokenLocked("d")
		e := execution{c: c}
		if handoff {
			return e
		}
		select {
		case p.work <- e:
		default:
			go p.run(e)
		}
	}
	return execution{}
}

// The hedge timer: a duplicate starts only on a free slot.
func (p *pump) hedge(c *call, free bool) {
	if free {
		p.grabTokenLocked("d")
		p.hedges++
		go p.run(execution{c: c, hedge: true})
	}
}

// A plain send hands the token to whoever receives the execution.
func (p *pump) sendToParked(c *call) {
	p.grabTokenLocked("d")
	p.work <- execution{c: c}
}

// The completion gives its token back and takes the next one in the same
// critical section.
func (p *pump) complete(queue []*call) execution {
	p.dropTokenLocked("d")
	return p.dispatchLocked(queue, true)
}
