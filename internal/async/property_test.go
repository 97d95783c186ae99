package async

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/expr"
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
func (s *scriptedFaultSource) CacheKey(args []types.Value) string {
	return s.name + "|" + args[0].AsString()
}

func (s *scriptedFaultSource) Call(args []types.Value) ([]types.Tuple, error) {
	arg := args[0].AsString()
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
	for iter := 0; iter < 25; iter++ {
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
			rs := NewReqSync(dj2, pump, filled)

			ctx := exec.NewContext()
			ctx.Degrade = exec.DegradeDrop
			rows, err := exec.Run(ctx, rs)
			if err != nil {
				t.Fatalf("drop policy must absorb all terminal failures: %v", err)
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
