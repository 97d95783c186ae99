package async

import (
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/types"
)

// CallTrace records one pump call's lifecycle for a sampled query's
// distributed trace: registration, queue wait, each physical execution
// (first attempt, retries, hedges), and the final outcome. Records are
// created by RegisterCtx only when the call's context carries a sampled
// obs.TraceCtx — an untraced call carries a nil pointer and every
// recording site is a nil check.
//
// A CallTrace is written by pump goroutines (dispatch, run, the retry
// timers) while the query goroutine may be converting it to a span, so
// it carries its own mutex. Lock ordering: pump code may touch a
// CallTrace while holding p.mu (CallTrace methods take only ct.mu and
// never call back into the pump), but never the reverse.
type CallTrace struct {
	mu         sync.Mutex
	dest       string
	key        string
	registered time.Time
	dispatched time.Time
	finished   time.Time
	outcome    string
	attempts   []callAttempt
	peer       *obs.Span // the tier cache-peer round trip, if one was made
}

type callAttempt struct {
	kind   string // "attempt", "retry", "hedge"
	start  time.Time
	dur    time.Duration
	failed bool
}

func newCallTrace(dest, key string) *CallTrace {
	return &CallTrace{dest: dest, key: key, registered: time.Now()}
}

// setDispatched marks the moment the call left the admission queue.
// Nil-safe, like every CallTrace recording method.
func (ct *CallTrace) setDispatched() {
	if ct == nil {
		return
	}
	ct.mu.Lock()
	if ct.dispatched.IsZero() {
		ct.dispatched = time.Now()
	}
	ct.mu.Unlock()
}

// addAttempt records one physical execution of the call.
func (ct *CallTrace) addAttempt(kind string, start time.Time, dur time.Duration, failed bool) {
	if ct == nil {
		return
	}
	ct.mu.Lock()
	ct.attempts = append(ct.attempts, callAttempt{kind: kind, start: start, dur: dur, failed: failed})
	ct.mu.Unlock()
}

// addPeerFetch records the cache-peer round trip the call's first
// attempt made (nil: none was made or it was not timed).
func (ct *CallTrace) addPeerFetch(s *obs.Span) {
	if ct == nil || s == nil {
		return
	}
	ct.mu.Lock()
	ct.peer = s
	ct.mu.Unlock()
}

// finish records the call's terminal outcome ("ok", "error", "canceled",
// "cache_hit", "peer_hit", "coalesced", "closed"). First outcome wins.
func (ct *CallTrace) finish(outcome string) {
	if ct == nil {
		return
	}
	ct.mu.Lock()
	if ct.outcome == "" {
		ct.outcome = outcome
		ct.finished = time.Now()
	}
	ct.mu.Unlock()
}

// Span converts the record to a span subtree: one "pump.call" span from
// registration to settlement, with the cache-peer round trip and a child
// per physical execution, and the queue wait as an extra. The pump call
// ran concurrently with the query's operators, so callers attach it via
// Span.AddAsyncChild.
func (ct *CallTrace) Span() *obs.Span {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	end := ct.finished
	if end.IsZero() {
		// Still in flight when collected (query ended first): clock the
		// span at collection time rather than dropping it.
		end = time.Now()
	}
	detail := ct.dest
	if ct.outcome != "" && ct.outcome != "ok" {
		detail += " " + ct.outcome
	}
	s := &obs.Span{Op: "pump.call", Detail: detail, Start: ct.registered, Dur: end.Sub(ct.registered)}
	if !ct.dispatched.IsZero() {
		s.AddExtra("queue_us", ct.dispatched.Sub(ct.registered).Microseconds())
	}
	if ct.peer != nil {
		s.AddChild(ct.peer)
	}
	for _, a := range ct.attempts {
		c := &obs.Span{Op: "pump." + a.kind, Start: a.start, Dur: a.dur}
		if a.failed {
			c.Detail = "failed"
		}
		s.AddChild(c)
	}
	return s
}

// CallTrace returns the trace record of a call the pump still holds, or
// nil when the call is untraced or no longer held. The issuing operator
// (AEVScan) asks right after RegisterCtx — its own ReqSync cannot have
// taken the call yet — and keeps the record for its span.
func (p *Pump) CallTrace(id types.CallID) *CallTrace {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c := p.calls[id]; c != nil {
		return c.trace
	}
	return nil
}
