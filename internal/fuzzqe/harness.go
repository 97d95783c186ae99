package fuzzqe

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/async"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/types"
)

// Variant is one plan regime the differential harness executes a query
// under.
type Variant struct {
	Name string
	// DisableHash forces nested-loop joins (and suppresses the semi-join
	// rewrite), the paper's baseline plans.
	DisableHash bool
	// Async applies the asynchronous-iteration rewrite.
	Async bool
	// BatchSize overrides the executor batch granularity (0 = default).
	BatchSize int
	// Warm runs the query on the environment's cache-backed pump
	// (Env.WarmPump), whose small cache outlives the query: of a variant's
	// two executions the second answers at registration every call the
	// first left cached, the first whatever earlier queries left, so both
	// mix hits, misses and calls coalesced within a round. Each must
	// reproduce the truth and, when the cache answered all of it,
	// Truth.WarmCalls logical calls. Settlements are not compared: a hit
	// never reaches a ReqSync.
	Warm bool
}

// Variants are the five regimes every query runs under: the synchronous
// nested-loop plan, the async percolated/consolidated nested-loop plan,
// the hash-join plan under async at batch sizes 1 and 256, and the
// hash-join plan over a result cache. There is one pull protocol,
// so the two sizes do not compare protocols: size 1 is the
// tuple-at-a-time reference granularity and 256 exercises the
// batch-boundary carry-over in NestedLoopJoin and DependentJoin (output
// buffered past max, an outer tuple held across calls).
var Variants = []Variant{
	{Name: "sync-nlj", DisableHash: true},
	{Name: "async-nlj", DisableHash: true, Async: true},
	{Name: "async-hash-b1", Async: true, BatchSize: 1},
	{Name: "async-hash-b256", Async: true, BatchSize: 256},
	{Name: "async-warm", Async: true, Warm: true},
}

// VariantResult is one variant's observed behavior.
type VariantResult struct {
	Name     string
	Multiset map[string]int
	Rows     []types.Tuple // projected rows in emission order
	Calls    int64         // ctx.Stats.ExternalCalls
	Settled  int64         // sum of ReqSync "settled" counters across the plan
	// AllHits reports that the result cache answered every request of the
	// run at registration.
	AllHits bool
	// Trace is the span tree of an instrumented execution, nil otherwise.
	Trace *obs.Span
	Err   error
}

// Divergence is one detected disagreement: between a variant and the
// ground truth, between variants, or between observed and predicted
// plan behavior (call counts, settlement accounting, output order).
type Divergence struct {
	Spec    *QuerySpec
	SQL     string
	Variant string
	Kind    string // "error" | "result" | "calls" | "settle" | "order" | "trace"
	Detail  string
}

// Error renders the divergence for logs and repro files.
func (d *Divergence) Error() string {
	return fmt.Sprintf("%s divergence in %s: %s\n  query: %s", d.Kind, d.Variant, d.Detail, d.SQL)
}

// Runner executes specs differentially against an Env.
type Runner struct {
	Env *Env
	// Mutate, when non-nil, post-processes every async-rewritten plan
	// before execution. It exists for the fuzzer's self-test: a mutation
	// that re-introduces a percolation clash must be caught as a
	// divergence within a bounded number of queries.
	Mutate func(exec.Operator) exec.Operator
}

// RunOne evaluates spec's ground truth and executes it under every
// variant, returning the first divergence found (nil when all regimes
// agree). Each variant plans once and executes twice: the second execution
// re-opens the tree the first closed, as core does for a statement text it
// has seen (DESIGN.md §5, "Plan reuse"), instrumented for that execution
// only, as core traces a query; it is held to everything the first is and
// its span tree to the plan and to the execution's own counts (checkTrace),
// and its divergences carry the variant's name with "-rerun". The
// returned error reports harness-level failures — a spec the truth
// evaluator itself cannot handle — not query divergences.
func (r *Runner) RunOne(ctx context.Context, spec *QuerySpec) (*Divergence, error) {
	truth, err := r.Env.Truth(spec)
	if err != nil {
		return nil, fmt.Errorf("ground truth for %q: %w", spec.SQL(), err)
	}
	sql := spec.SQL()
	for _, v := range Variants {
		op, err := r.plan(spec, v)
		if err != nil {
			return &Divergence{Spec: spec, SQL: sql, Variant: v.Name, Kind: "error", Detail: err.Error()}, nil
		}
		for i, name := range []string{v.Name, v.Name + "-rerun"} {
			res := r.execute(ctx, op, v, i == 1)
			kind, detail := check(spec, truth, v, res)
			if kind == "" && res.Trace != nil {
				kind, detail = checkTrace(op, res)
			}
			if kind != "" {
				return &Divergence{Spec: spec, SQL: sql, Variant: name, Kind: kind, Detail: detail}, nil
			}
		}
	}
	return nil, nil
}

// checkTrace holds a traced execution's span tree to the plan it ran and to
// the execution's own counts: the plan's shape, the result's rows at the
// root, and the calls the scans report and the settlements the ReqSyncs
// report, which must be this execution's and not the tree's life's.
func checkTrace(op exec.Operator, res VariantResult) (kind, detail string) {
	if got, want := res.Trace.Shape(), exec.Shape(op); got != want {
		return "trace", fmt.Sprintf("span tree %s, plan %s", got, want)
	}
	if res.Trace.Rows != int64(len(res.Rows)) {
		return "trace", fmt.Sprintf("root span counts %d rows, the result has %d", res.Trace.Rows, len(res.Rows))
	}
	var calls, settled int64
	res.Trace.Walk(func(s *obs.Span) {
		calls += s.Extra["calls"]
		settled += s.Extra["settled"]
	})
	if calls != res.Calls || settled != res.Settled {
		return "trace", fmt.Sprintf("spans count %d calls and %d settlements, the execution %d and %d",
			calls, settled, res.Calls, res.Settled)
	}
	return "", ""
}

// check holds one execution under v against the ground truth and the plan
// model, naming the kind of the first disagreement ("" when there is none).
func check(spec *QuerySpec, truth *Truth, v Variant, res VariantResult) (kind, detail string) {
	if res.Err != nil {
		return "error", res.Err.Error()
	}
	if d := diffMultisets(truth.Multiset, res.Multiset); d != "" {
		return "result", d
	}
	want := truth.SyncCalls
	switch {
	case v.Warm:
		want = truth.WarmCalls
	case v.Async:
		want = truth.AsyncCalls
	}
	// A warm run that mixed hits and misses has no model: every hit
	// expands or drops its tuple below the next web join and every miss
	// above it, so the count depends on what the cache happened to hold.
	if (!v.Warm || res.AllHits) && res.Calls != want {
		return "calls", fmt.Sprintf("issued %d external calls, plan model predicts %d", res.Calls, want)
	}
	if v.Async && !v.Warm {
		wantSettle := truth.AsyncSettledHash
		if v.DisableHash {
			wantSettle = truth.AsyncSettledNLJ
		}
		if res.Settled != wantSettle {
			return "settle", fmt.Sprintf("ReqSyncs settled %d of %d issued calls, plan model predicts %d settled",
				res.Settled, res.Calls, wantSettle)
		}
	}
	// The async rewrite can percolate a ReqSync above a Sort whose
	// keys it does not fill, which reorders late-settling tuples, so
	// ordered output is only asserted for the synchronous plan (see
	// DESIGN.md §11).
	if !v.Async && len(spec.OrderBy) > 0 {
		if d := checkOrdered(spec, res.Rows); d != "" {
			return "order", d
		}
	}
	return "", ""
}

// pumpFor is the pump v's plans register with.
func (r *Runner) pumpFor(v Variant) *async.Pump {
	if v.Warm {
		return r.Env.WarmPump
	}
	return r.Env.Pump
}

// plan lowers spec under one regime.
func (r *Runner) plan(spec *QuerySpec, v Variant) (exec.Operator, error) {
	sel, err := sqlparse.ParseSelect(spec.SQL())
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	pl := *r.Env.Planner
	pl.DisableHashJoins = v.DisableHash
	op, err := pl.PlanSelect(sel)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	if v.Async {
		op = async.Rewrite(op, r.pumpFor(v))
		if r.Mutate != nil {
			op = r.Mutate(op)
		}
	}
	return op, nil
}

// execute runs a planned tree once, under a fresh context; traced, it runs
// it instrumented and strips it again.
func (r *Runner) execute(ctx context.Context, op exec.Operator, v Variant, traced bool) VariantResult {
	res := VariantResult{Name: v.Name}
	pump := r.pumpFor(v)
	ectx := exec.NewContextWith(ctx)
	ectx.BatchSize = v.BatchSize
	ectx.RetryCall = pump.CallWithRetry // the synchronous plan's calls are pump calls too
	before, settled := pump.Stats(), sumSettled(op)
	run := op
	if traced {
		run, res.Trace = exec.Instrument(op)
	}
	rows, err := exec.Run(ectx, run)
	if traced {
		exec.Uninstrument(run)
	}
	pump.Discard(ectx.PumpCalls...)
	after := pump.Stats()
	res.AllHits = after.Registered-before.Registered == after.CacheHits-before.CacheHits
	res.Settled = sumSettled(op) - settled // the counters run over the tree's life
	if err != nil {
		res.Err = fmt.Errorf("exec: %w", err)
		return res
	}
	res.Rows = rows
	res.Calls = ectx.Stats.ExternalCalls
	res.Multiset = make(map[string]int, len(rows))
	for _, row := range rows {
		res.Multiset[EncodeRow(row)]++
	}
	return res
}

// sumSettled totals the "settled" counter over every ReqSync in the plan.
func sumSettled(op exec.Operator) int64 {
	var n int64
	if rs, ok := op.(*async.ReqSync); ok {
		n += rs.SpanExtras()["settled"]
	}
	for _, c := range op.Children() {
		n += sumSettled(c)
	}
	return n
}

// diffMultisets returns "" when equal, else a short description naming a
// few rows whose multiplicities differ ("truth" is the expected side).
func diffMultisets(want, got map[string]int) string {
	var diffs []string
	for k, w := range want {
		if g := got[k]; g != w {
			diffs = append(diffs, fmt.Sprintf("row %q: truth has %d, variant has %d", printable(k), w, g))
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("row %q: truth has 0, variant has %d", printable(k), g))
		}
	}
	if len(diffs) == 0 {
		return ""
	}
	sort.Strings(diffs)
	if len(diffs) > 4 {
		diffs = append(diffs[:4], fmt.Sprintf("... and %d more", len(diffs)-4))
	}
	return strings.Join(diffs, "; ")
}

// checkOrdered verifies rows are sorted per the spec's ORDER BY keys.
func checkOrdered(spec *QuerySpec, rows []types.Tuple) string {
	idx := make([]int, len(spec.OrderBy))
	for i, k := range spec.OrderBy {
		idx[i] = -1
		for pi, p := range spec.Proj {
			if p == k.Col {
				idx[i] = pi
				break
			}
		}
		if idx[i] < 0 {
			return fmt.Sprintf("order key %s not projected", k.Col)
		}
	}
	for ri := 1; ri < len(rows); ri++ {
		for ki, k := range spec.OrderBy {
			c := rows[ri-1][idx[ki]].Compare(rows[ri][idx[ki]])
			if k.Desc {
				c = -c
			}
			if c < 0 {
				break // strictly ordered on this key
			}
			if c > 0 {
				return fmt.Sprintf("rows %d and %d out of order on %s", ri-1, ri, k.Col)
			}
		}
	}
	return ""
}

func printable(key string) string {
	return strings.ReplaceAll(key, "\x1f", "|")
}
