package async

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/leakcheck"
	"repro/internal/schema"
	"repro/internal/types"
)

// The property suite: randomized seeded fault schedules against the
// two-call ReqSync plan, checking the paper's tuple algebra invariants.
//
// For every driving term with per-call result cardinalities (a, b):
//   - if both calls eventually succeed, the term contributes exactly a×b
//     output tuples (expansion multiplicativity);
//   - if either call fails terminally under the drop policy, the term
//     contributes zero tuples (cancellation completeness);
//   - after the query finishes and the pump settles, no results remain
//     parked (canceled calls never leak).

// faultScript is one term's behavior at one source.
type faultScript struct {
	rows     int  // result cardinality once the call succeeds
	failures int  // transient failures before the first success
	hard     bool // fail permanently instead
}

// scriptedFaultSource fails each argument per its script, then succeeds.
type scriptedFaultSource struct {
	name     string
	dest     string
	scripts  map[string]faultScript
	mu       sync.Mutex
	attempts map[string]int
}

func (s *scriptedFaultSource) Name() string        { return s.name }
func (s *scriptedFaultSource) Destination() string { return s.dest }
func (s *scriptedFaultSource) NumEcho() int        { return 0 }
func (s *scriptedFaultSource) AppendKey(buf []byte, args []types.Value) []byte {
	return append(append(append(buf, s.name...), '|'), args[0].AsString()...)
}
func (s *scriptedFaultSource) Call(key string) func() ([]types.Tuple, error) {
	arg := strings.TrimPrefix(key, s.name+"|")
	return func() ([]types.Tuple, error) { return s.call(arg) }
}

func (s *scriptedFaultSource) call(arg string) ([]types.Tuple, error) {
	sc := s.scripts[arg]
	if sc.hard {
		return nil, fmt.Errorf("%s(%s): scripted hard failure", s.name, arg)
	}
	s.mu.Lock()
	s.attempts[arg]++
	n := s.attempts[arg]
	s.mu.Unlock()
	if n <= sc.failures {
		return nil, transientErr{fmt.Sprintf("%s(%s): scripted transient %d", s.name, arg, n)}
	}
	out := make([]types.Tuple, sc.rows)
	for i := range out {
		out[i] = types.Tuple{types.Str(s.name + "-" + arg + "-" + fmt.Sprint(i))}
	}
	return out, nil
}

func randomScripts(rng *rand.Rand, terms []string) map[string]faultScript {
	out := make(map[string]faultScript, len(terms))
	for _, term := range terms {
		out[term] = faultScript{
			rows:     rng.Intn(4),          // 0..3 result rows
			failures: rng.Intn(3),          // 0..2 transient failures
			hard:     rng.Float64() < 0.15, // occasional permanent failure
		}
	}
	return out
}

func TestReqSyncPropertiesUnderRandomFaultSchedules(t *testing.T) {
	// The loop stops at the first failing seed: a leaked slot or goroutine
	// fails every later seed the same way, each after its own wait, and the
	// sum of those waits is the package timeout, which names no seed at all.
	for iter := 0; iter < 25 && !t.Failed(); iter++ {
		iter := iter
		t.Run(fmt.Sprintf("seed=%d", 9000+iter), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(9000 + iter)))
			nTerms := 1 + rng.Intn(6)
			terms := make([]string, nTerms)
			for i := range terms {
				terms[i] = fmt.Sprintf("t%d", i)
			}
			srcA := &scriptedFaultSource{name: "A", dest: "a",
				scripts: randomScripts(rng, terms), attempts: map[string]int{}}
			srcB := &scriptedFaultSource{name: "B", dest: "b",
				scripts: randomScripts(rng, terms), attempts: map[string]int{}}

			pump := NewPump(1+rng.Intn(8), 1+rng.Intn(4), nil)
			defer pump.Close()
			// 3 retries cover the scripted 0..2 transient failures, so only
			// hard-scripted calls fail terminally.
			pump.SetRetryPolicy(RetryPolicy{
				MaxAttempts: 4,
				BaseBackoff: 100 * time.Microsecond,
				JitterFrac:  0.5,
			})

			termCol := strCol("L", "Term")
			left := exec.NewValuesScan(schema.New(termCol), tuplesOf(terms))
			aOut := schema.New(strCol("A", "Val"))
			bOut := schema.New(strCol("B", "Val"))
			aev1 := NewAEVScan(srcA, []expr.Expr{expr.NewColRef(termCol)}, aOut, pump)
			dj1 := exec.NewDependentJoin(left, aev1, "")
			aev2 := NewAEVScan(srcB, []expr.Expr{expr.NewColRef(termCol)}, bOut, pump)
			dj2 := exec.NewDependentJoin(dj1, aev2, "")
			filled := aev1.FilledAttrs()
			for id := range aev2.FilledAttrs() {
				filled[id] = true
			}
			rs := syncOver(dj2, pump, filled)

			// The schedules finish in milliseconds. A retry that can never get
			// a slot (its predecessor kept the token) waits on the query's
			// context, so the deadline turns that hang into this failure.
			qctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			ctx := exec.NewContextWith(qctx)
			ctx.Degrade = exec.DegradeDrop
			rows, err := exec.Run(ctx, rs)
			if err != nil {
				t.Fatalf("drop policy must absorb all terminal failures: %v (%s)", err, pumpState(pump))
			}

			// Multiplicativity: per-term output count is the product of the
			// two calls' cardinalities, zero if either failed terminally.
			got := map[string]int{}
			for _, r := range rows {
				if r.HasPlaceholder() {
					t.Fatalf("placeholder escaped ReqSync: %v", r)
				}
				got[r[0].AsString()]++
			}
			wantDegraded := 0
			for _, term := range terms {
				a, b := srcA.scripts[term], srcB.scripts[term]
				want := a.rows * b.rows
				if a.hard || b.hard {
					want = 0
					wantDegraded++
				}
				if got[term] != want {
					t.Errorf("term %s: %d output tuples, want %d (A{rows:%d hard:%v} B{rows:%d hard:%v})",
						term, got[term], want, a.rows, a.hard, b.rows, b.hard)
				}
			}
			// Degraded-call accounting: hard failures on the B call may be
			// short-circuited when the A call already canceled the tuple, so
			// the counter is bounded by, not equal to, the scripted count.
			if int(ctx.Stats.DegradedCalls) > 2*nTerms {
				t.Errorf("DegradedCalls = %d exceeds any possible schedule", ctx.Stats.DegradedCalls)
			}
			if wantDegraded > 0 && ctx.Stats.DegradedCalls == 0 {
				t.Error("hard failures scripted but DegradedCalls is zero")
			}

			// Leak freedom: once the pump settles, no call record survives.
			waitSettled(t, pump)
			if held := pump.Held(); held != 0 {
				t.Errorf("leaked pump state after query end: %d call records held", held)
			}
		})
	}
}

// gatedSource answers per its scripts, but holds each call until the
// argument's gate opens: the order the test opens gates in is the order
// calls complete in.
type gatedSource struct {
	*scriptedFaultSource
	gates map[string]chan struct{}
}

func (g *gatedSource) Call(key string) func() ([]types.Tuple, error) {
	call := g.scriptedFaultSource.Call(key)
	gate := g.gates[strings.TrimPrefix(key, g.name+"|")]
	return func() ([]types.Tuple, error) {
		<-gate
		return call()
	}
}

// wsqdPolicy is wsqd's default retry policy (its -retries, -retry-backoff
// and -call-timeout flags): with a deadline, every execution arms a timer.
var wsqdPolicy = RetryPolicy{MaxAttempts: 4, BaseBackoff: 5 * time.Millisecond, JitterFrac: 0.5, CallTimeout: 2 * time.Second}

// TestSettleHandshakeProperties drives the ReqSync↔ReqPump handshake
// through random completion orders × 0..3-row results × transient and
// permanent failures × fail|drop|partial × {run to completion, cancel the
// query mid-settle, Close the pump mid-wait} × {fast retries, wsqd's
// retry policy}. Whatever happens, the query
// ends in a result or an error of the expected kind, and nothing is left
// behind: every registered call has left the call table (taken by the
// ReqSync or discarded, so none can be taken again), no execution holds a
// token, and the goroutine count is back at its baseline.
func TestSettleHandshakeProperties(t *testing.T) {
	policies := []exec.DegradePolicy{exec.DegradeFail, exec.DegradeDrop, exec.DegradePartial}
	scenarios := []string{"complete", "cancel", "close"}
	// 3 retries cover the scripted 0..2 transient failures; a retry waits
	// out its backoff in the pump's queue.
	retries := []struct {
		suffix string
		pol    RetryPolicy
	}{{"", RetryPolicy{MaxAttempts: 4, BaseBackoff: 50 * time.Microsecond, JitterFrac: 0.5}}, {"/wsqd", wsqdPolicy}}
	for iter := 0; iter < 2*45 && !t.Failed(); iter++ { // stops at the first failing seed, as above
		seed, retry := int64(7000+iter%45), retries[iter/45]
		policy, scenario := policies[iter%3], scenarios[(iter/3)%3]
		t.Run(fmt.Sprintf("seed=%d/%s/%s%s", seed, policy, scenario, retry.suffix), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			rng := rand.New(rand.NewSource(seed))
			terms := make([]string, 1+rng.Intn(12))
			gates := make(map[string]chan struct{}, len(terms))
			for i := range terms {
				terms[i] = fmt.Sprintf("t%d", i)
				gates[terms[i]] = make(chan struct{})
			}
			src := &gatedSource{gates: gates, scriptedFaultSource: &scriptedFaultSource{
				name: "A", dest: "a", scripts: randomScripts(rng, terms), attempts: map[string]int{}}}
			anyHard := false
			for _, sc := range src.scripts {
				anyHard = anyHard || sc.hard
			}

			pump := NewPump(1+rng.Intn(8), 1+rng.Intn(4), nil)
			defer pump.Close()
			pump.SetRetryPolicy(retry.pol)

			termCol := strCol("L", "Term")
			left := exec.NewValuesScan(schema.New(termCol), tuplesOf(terms))
			aev := NewAEVScan(src, []expr.Expr{expr.NewColRef(termCol)}, schema.New(strCol("A", "Val")), pump)
			rs := syncOver(exec.NewDependentJoin(left, aev, ""), pump, aev.FilledAttrs())

			// Every schedule ends in milliseconds; the deadline only turns a
			// wait nothing will end into an error of the wrong kind below.
			qctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			ectx := exec.NewContextWith(qctx)
			ectx.Degrade = policy

			// The releaser opens the gates in a random order, pausing a random
			// moment after each so the ReqSync settles in between, and fires
			// the scenario's event before the k-th gate.
			order := rng.Perm(len(terms))
			k := rng.Intn(len(terms))
			pauses := make([]time.Duration, len(terms))
			for i := range pauses {
				pauses[i] = time.Duration(rng.Intn(300)) * time.Microsecond
			}
			released := make(chan struct{})
			go func() {
				defer close(released)
				for i, ti := range order {
					if i == k {
						switch scenario {
						case "cancel":
							cancel()
						case "close":
							pump.Close()
						}
					}
					close(gates[terms[ti]])
					time.Sleep(pauses[i])
				}
			}()

			rows, err := exec.Run(ectx, rs)
			<-released
			pump.Discard(ectx.PumpCalls...)

			scriptedFailure := err != nil && strings.Contains(err.Error(), "scripted hard failure")
			switch {
			case err == nil:
			case scriptedFailure && policy == exec.DegradeFail && anyHard:
			case scenario == "cancel" && errors.Is(err, context.Canceled):
			case scenario == "close" && errors.Is(err, ErrPumpClosed):
			default:
				t.Fatalf("query ended with an error of the wrong kind: %v (%s)", err, pumpState(pump))
			}
			got := map[string][]types.Tuple{}
			for _, r := range rows {
				if r.HasPlaceholder() {
					t.Fatalf("placeholder escaped ReqSync: %v", r)
				}
				got[r[0].AsString()] = append(got[r[0].AsString()], r)
			}
			if scenario == "complete" {
				if policy == exec.DegradeFail && anyHard != (err != nil) {
					t.Fatalf("fail policy: err = %v with hard failures scripted = %v", err, anyHard)
				}
				for _, term := range terms {
					sc, want := src.scripts[term], src.scripts[term].rows
					switch {
					case err != nil:
						want = 0
					case sc.hard && policy == exec.DegradePartial:
						want = 1
						if len(got[term]) == 1 && !got[term][0][1].IsNull() {
							t.Errorf("term %s: failed call patched %v, want NULL", term, got[term][0][1])
						}
					case sc.hard:
						want = 0
					}
					if len(got[term]) != want {
						t.Errorf("term %s: %d tuples, want %d (%+v)", term, len(got[term]), want, sc)
					}
				}
				if err == nil && int(rs.nSettled) != len(terms) {
					t.Errorf("settled %d of %d calls", rs.nSettled, len(terms))
				}
			}

			if len(ectx.PumpCalls) != len(terms) {
				t.Fatalf("registered %d calls for %d terms", len(ectx.PumpCalls), len(terms))
			}
			pump.Quiesce()
			if running, queued := pump.Active(); running != 0 || queued != 0 {
				t.Errorf("after Quiesce: %d running, %d queued", running, queued)
			}
			if held := pump.Held(); held != 0 {
				t.Errorf("%d call records still held", held)
			}
			for _, id := range ectx.PumpCalls {
				if _, ok := pump.Take(id); ok {
					t.Errorf("call %d could be taken after the query let go of it", id)
				}
			}
			leakcheck.Settle(t, baseline)
		})
	}
}

// pumpState renders what a stuck query's failure message needs: the
// pump's own view of what is running, queued, held and in flight where.
func pumpState(p *Pump) string {
	running, queued := p.Active()
	return fmt.Sprintf("pump: running=%d queued=%d held=%d in flight per destination=%v",
		running, queued, p.Held(), p.DestActive())
}

// doneCountingCtx counts how often anyone asks for its Done channel. Every
// way of waiting on a context — a select, a watcher goroutine,
// context.AfterFunc — starts by asking.
type doneCountingCtx struct {
	context.Context
	asked atomic.Int64
}

func (c *doneCountingCtx) Done() <-chan struct{} {
	c.asked.Add(1)
	return c.Context.Done()
}

// TestWarmCacheQuerySettlesWithoutWaiting: a Template-1-shaped query (50
// calls) whose calls are all cache hits is answered at registration, even
// under a cancellable context: the pump counts 50 registrations and 50
// hits but makes no call record, the ReqSync has nothing to settle and
// never reaches the pump's wait, so nothing asks for the context's Done
// channel, no goroutine starts, and the query leaves nothing to discard.
func TestWarmCacheQuerySettlesWithoutWaiting(t *testing.T) {
	terms := make([]string, 50)
	for i := range terms {
		terms[i] = fmt.Sprintf("state%d", i)
	}
	src := &scriptedSource{name: "WC", dest: "d", numEcho: 1,
		rows: func(arg string) ([]types.Tuple, error) {
			return []types.Tuple{{types.Int(int64(len(arg)))}}, nil
		}}
	pump := NewPump(0, 0, &countingCache{m: make(map[string][]types.Tuple)})
	defer pump.Close()
	warm, _ := buildCountPlan(terms, src, pump)
	if rows := runOp(t, warm); len(rows) != len(terms) {
		t.Fatalf("warm-up run: %d rows", len(rows))
	}
	pump.Quiesce()
	before := pump.Stats()

	qctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	counting := &doneCountingCtx{Context: qctx}
	ectx := exec.NewContextWith(counting)
	rs, _ := buildCountPlan(terms, src, pump)
	if err := rs.Open(ectx); err != nil {
		t.Fatal(err)
	}
	goroutines, asked := runtime.NumGoroutine(), counting.asked.Load()
	n := 0
	for {
		b, ok, err := rs.NextBatch(ectx, ectx.BatchLen())
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n += len(b)
	}
	if got := counting.asked.Load() - asked; got != 0 {
		t.Errorf("emitting cache hits asked for the context's Done channel %d times, want 0", got)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("goroutines grew from %d to %d while emitting cache hits", goroutines, got)
	}
	// Before Close, and with no Discard: a hit never entered the call table.
	if held := pump.Held(); held != 0 {
		t.Errorf("%d call records held by a query of cache hits", held)
	}
	if len(ectx.PumpCalls) != 0 {
		t.Errorf("context lists %d calls to discard, want none", len(ectx.PumpCalls))
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	st := pump.Stats()
	got := [5]int64{int64(n), st.Registered - before.Registered, st.CacheHits - before.CacheHits, st.Started - before.Started, rs.nSettled}
	if want := [5]int64{50, 50, 50, 0, 0}; got != want {
		t.Errorf("rows, registered, cache hits, started, settled = %v, want %v", got, want)
	}
}
