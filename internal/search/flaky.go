package search

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// FaultKind classifies an injected fault.
type FaultKind string

// The injected fault kinds. Transient and RateLimit failures are retryable
// (a later identical request may succeed); Hard failures are not. Stall and
// SlowTail do not fail the call at all — they model a hung connection and a
// latency tail, which only a per-call deadline or a hedged duplicate
// request can mask.
const (
	FaultTransient FaultKind = "transient"
	FaultRateLimit FaultKind = "ratelimit"
	FaultHard      FaultKind = "hard"
	FaultStall     FaultKind = "stall"
	FaultSlowTail  FaultKind = "slowtail"
)

// FaultError is a failure injected by a Flaky engine wrapper.
type FaultError struct {
	Engine string
	Op     string // "count", "search", "fetch"
	Kind   FaultKind
}

// Error implements error.
func (e *FaultError) Error() string {
	return fmt.Sprintf("%s %s: injected %s fault", e.Engine, e.Op, e.Kind)
}

// Transient reports whether retrying the call may succeed. The request
// pump's retry loop consults this via the async package's transient-error
// classification.
func (e *FaultError) Transient() bool {
	return e.Kind == FaultTransient || e.Kind == FaultRateLimit
}

// FaultProfile gives the per-request probability of each fault kind for
// one operation. Probabilities are evaluated cumulatively in the order
// Transient, RateLimit, Hard, Stall, SlowTail — at most one fault fires
// per request — so their sum must not exceed 1.
type FaultProfile struct {
	Transient float64
	RateLimit float64
	Hard      float64
	Stall     float64
	SlowTail  float64
}

// FaultModel configures a Flaky wrapper: one profile per engine operation
// (per-op probabilities, as Count is typically far cheaper and more
// reliable than Search in real engines) plus the durations of the two
// non-failing faults.
type FaultModel struct {
	Count  FaultProfile
	Search FaultProfile
	Fetch  FaultProfile
	// StallFor is how long a stalled call hangs before proceeding.
	StallFor time.Duration
	// SlowBy is the extra latency of a slow-tail call.
	SlowBy time.Duration
}

// UniformFaults applies the same profile to every operation.
func UniformFaults(p FaultProfile) FaultModel {
	return FaultModel{Count: p, Search: p, Fetch: p, StallFor: 100 * time.Millisecond, SlowBy: 50 * time.Millisecond}
}

// TransientOnly injects only retryable failures, each operation failing
// with probability p. Retries with enough attempts mask this model
// completely, which is what the golden fault-injection suite asserts.
func TransientOnly(p float64) FaultModel {
	return UniformFaults(FaultProfile{Transient: p})
}

// FlakyStats counts the faults a Flaky wrapper has injected.
type FlakyStats struct {
	Calls     int64
	Transient int64
	RateLimit int64
	Hard      int64
	Stalls    int64
	SlowTails int64
}

// Injected returns the total number of injected events (including
// non-failing stalls and slow tails).
func (s FlakyStats) Injected() int64 {
	return s.Transient + s.RateLimit + s.Hard + s.Stalls + s.SlowTails
}

// The fault kinds in the order a profile's probabilities are evaluated,
// indexing a Flaky record's per-kind counts; faultKinds holds their kind
// label values.
const (
	fkTransient = iota
	fkRateLimit
	fkHard
	fkStall
	fkSlowTail
)

var faultKinds = [...]FaultKind{
	fkTransient: FaultTransient, fkRateLimit: FaultRateLimit, fkHard: FaultHard,
	fkStall: FaultStall, fkSlowTail: FaultSlowTail,
}

// Flaky wraps an engine with deterministic, seeded fault injection. It is
// safe for concurrent use; the fault schedule is drawn from a locked Rand,
// typically the same one that drives the engine's Delayed latency wrapper,
// so one seed fixes the whole simulated engine's behavior.
//
// The wrapper decides the fault before invoking the inner engine: a failed
// call never reaches the engine (like a connection refused), while stalls
// and slow tails delay the request and then let it through.
//
// It keeps one record — calls, and injected faults per kind — which Stats
// reads and Observe exposes on /metrics.
type Flaky struct {
	inner Engine
	model FaultModel
	rng   *Rand

	calls  obs.Counter
	faults [len(faultKinds)]obs.Counter // indexed like faultKinds
}

// NewFlaky wraps inner with the given fault model, drawing the fault
// schedule from rng (use NewRand(seed); sharing the Delayed wrapper's Rand
// is encouraged).
func NewFlaky(inner Engine, model FaultModel, rng *Rand) *Flaky {
	if rng == nil {
		rng = NewRand(1)
	}
	return &Flaky{inner: inner, model: model, rng: rng}
}

// Name implements Engine.
func (f *Flaky) Name() string { return f.inner.Name() }

// Observe implements obs.Observable: it exposes the fault counts as the
// engine's series of wsq_engine_faults_total, a kind's series appearing
// with its first fault, and forwards to the wrapped engine if it is
// observable too.
func (f *Flaky) Observe(reg *obs.Registry) {
	name := f.Name()
	reg.CounterVecFunc("wsq_engine_faults_total",
		"Injected engine faults, by engine and fault kind.", []string{"engine", "kind"}, name, func() []obs.Series[float64] {
			var out []obs.Series[float64]
			for i, kind := range faultKinds {
				if n := f.faults[i].Value(); n > 0 {
					out = append(out, obs.Series[float64]{Labels: []string{name, string(kind)}, Value: float64(n)})
				}
			}
			return out
		})
	if o, ok := f.inner.(obs.Observable); ok {
		o.Observe(reg)
	}
}

// inject draws the fault decision for one request. It returns a non-nil
// error for failing faults; for stalls and slow tails it sleeps and
// returns nil.
func (f *Flaky) inject(op string, p FaultProfile) error {
	f.calls.Inc()
	draw := f.rng.Float64()
	var cum float64
	probs := [...]float64{
		fkTransient: p.Transient, fkRateLimit: p.RateLimit, fkHard: p.Hard,
		fkStall: p.Stall, fkSlowTail: p.SlowTail,
	}
	for i, prob := range probs {
		if cum += prob; draw >= cum {
			continue
		}
		f.faults[i].Inc()
		switch kind := faultKinds[i]; kind {
		case FaultStall:
			time.Sleep(f.model.StallFor)
		case FaultSlowTail:
			time.Sleep(f.model.SlowBy)
		default:
			return &FaultError{Engine: f.inner.Name(), Op: op, Kind: kind}
		}
		return nil
	}
	return nil
}

// Count implements Engine.
func (f *Flaky) Count(query string) (int64, error) {
	if err := f.inject("count", f.model.Count); err != nil {
		return 0, err
	}
	return f.inner.Count(query)
}

// Search implements Engine.
func (f *Flaky) Search(query string, k int) ([]Result, error) {
	if err := f.inject("search", f.model.Search); err != nil {
		return nil, err
	}
	return f.inner.Search(query, k)
}

// Fetch implements Engine.
func (f *Flaky) Fetch(url string) (string, error) {
	if err := f.inject("fetch", f.model.Fetch); err != nil {
		return "", err
	}
	return f.inner.Fetch(url)
}

// Stats snapshots the record.
func (f *Flaky) Stats() FlakyStats {
	return FlakyStats{
		Calls:     f.calls.Value(),
		Transient: f.faults[fkTransient].Value(),
		RateLimit: f.faults[fkRateLimit].Value(),
		Hard:      f.faults[fkHard].Value(),
		Stalls:    f.faults[fkStall].Value(),
		SlowTails: f.faults[fkSlowTail].Value(),
	}
}

// ResetStats zeroes the record between experiment runs, its /metrics
// series included.
func (f *Flaky) ResetStats() {
	f.calls.Reset()
	for i := range f.faults {
		f.faults[i].Reset()
	}
}
