package async

import (
	"context"
	"errors"
	"time"
)

// ErrCallTimeout is the (wrapped) error of an external call attempt that
// exceeded the retry policy's per-call deadline. It is classified as
// transient: the attempt is abandoned and, attempts permitting, retried.
var ErrCallTimeout = errors.New("external call timed out")

// RetryPolicy controls how pump workers execute external calls in the face
// of failure: bounded retries with exponential backoff and jitter, a
// per-attempt deadline, and optional hedged duplicate requests for
// latency-tail stragglers.
//
// The zero value disables everything — one attempt, no deadline, no hedging
// — which is the pre-fault-tolerance pump behavior.
//
// Retries and hedges consume per-destination and total concurrency slots
// like any other call: a failed attempt's slot is returned when its
// execution ends, a retry waits out its backoff in the pump's queue and
// takes a slot in turn like a new call (so waiting retries never starve
// other queries or engines), and a hedge launches only if a slot is free
// at that instant.
type RetryPolicy struct {
	// MaxAttempts is the total number of executions allowed per call,
	// including the first (values below 1 mean 1). Only transient errors —
	// see IsTransient — are retried.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it (exponential backoff).
	BaseBackoff time.Duration
	// JitterFrac adds a uniform random delay of up to JitterFrac×backoff,
	// decorrelating retry storms from concurrent queries.
	JitterFrac float64
	// CallTimeout bounds each attempt's wall time (0 = unbounded). A timed
	// out attempt is abandoned — its execution finishes into the void,
	// holding its concurrency slot until the engine actually returns — and
	// counts as a transient failure.
	CallTimeout time.Duration
	// HedgeAfter, when positive, launches one duplicate request if an
	// attempt has not completed within this duration; the first result
	// (original or hedge) wins. The duplicate is only launched when a
	// concurrency slot is free, so hedging never starves other
	// destinations: until one is, the attempt checks again every
	// HedgeAfter.
	HedgeAfter time.Duration
}

// normalized fills the policy's implied defaults.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	return p
}

// backoff computes the pre-jitter delay before retry number n (0-based).
func (p RetryPolicy) backoff(n int) time.Duration {
	return p.BaseBackoff << n
}

// transienter is implemented by errors that know whether retrying may
// help; search.FaultError is the canonical implementation. Declaring the
// interface here keeps the async package free of a dependency on any
// particular engine package.
type transienter interface{ Transient() bool }

// IsTransient reports whether err is worth retrying: per-attempt timeouts
// and any error (anywhere in the chain) that declares itself Transient().
// Context cancellation and deadline expiry are permanent — the query is
// gone, retrying would waste the slot budget.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrCallTimeout) {
		return true
	}
	var t transienter
	if errors.As(err, &t) {
		return t.Transient()
	}
	return false
}
