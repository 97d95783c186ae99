// Package exec implements the iterator-based query executor of the WSQ/DSQ
// reproduction: the Open/NextBatch/Close operator protocol — the iterator
// model of [Gra93] that Section 4 of the paper assumes, with one pull
// method that moves a bounded batch of tuples per call — with table scans,
// filters, projections, nested-loop, hash and dependent joins, sorting,
// aggregation, and external virtual-table scans (EVScan).
//
// There is exactly one pull protocol (see Operator.NextBatch). A consumer
// that wants tuples ranges over the batch it pulled. Three rules make the
// single protocol safe to reason about:
//
//   - Size: a successful pull returns between 1 and max tuples; ok == false
//     means end of stream and stays false until the operator is re-opened.
//     Callers pass max >= 1 (Context.BatchLen is the query's granularity);
//     max < 1 is a caller bug and is rejected with an error.
//   - Ownership: a Batch is a window into storage its producer owns, valid
//     until the next NextBatch on that producer (see Batch). Its tuples
//     outlive it, unless the consumer keeps none of them and says so (see
//     recycler).
//   - Draw: NextBatch(max) pulls no more input from a side that may issue
//     external calls than a tuple-at-a-time consumer of max tuples would
//     have. Limit caps max at its remaining quota; NestedLoopJoin and the
//     per-binding DependentJoin path advance their outer side one tuple at
//     a time and stop as soon as max tuples are buffered. Below an EVScan
//     every extra outer tuple is an extra external call, so this rule is
//     what keeps `LIMIT 3` at three calls whatever the batch size. The
//     hash joins are the stated exception: they probe a batch of up to max
//     outer tuples per round.
//
// Operators expose their children for structural rewrites; the
// asynchronous-iteration rewriter (package async) relies on this to insert,
// percolate, and consolidate ReqSync operators without the executor knowing
// anything about asynchrony — exactly the paper's claim that "no other
// query plan operators need to be modified".
package exec

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/types"
)

// DegradePolicy selects what happens to tuples whose external call
// ultimately failed (after the request pump exhausted its retries), under
// synchronous and asynchronous iteration alike (Context.Degraded). It is a
// per-query choice: a dashboard may prefer partial rows over an error, a
// correctness test wants the error.
type DegradePolicy uint8

const (
	// DegradeFail errors the whole query on a failed call (the default).
	DegradeFail DegradePolicy = iota
	// DegradeDrop cancels the tuples waiting on the failed call, exactly as
	// if the call had returned zero rows.
	DegradeDrop
	// DegradePartial emits the waiting tuples with the call's attributes
	// patched to NULL.
	DegradePartial
)

// String renders the policy's flag spelling.
func (d DegradePolicy) String() string {
	switch d {
	case DegradeDrop:
		return "drop"
	case DegradePartial:
		return "partial"
	default:
		return "fail"
	}
}

// ParseDegrade parses a policy name ("fail", "drop", "partial"; empty means
// fail).
func ParseDegrade(s string) (DegradePolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "fail":
		return DegradeFail, nil
	case "drop":
		return DegradeDrop, nil
	case "partial":
		return DegradePartial, nil
	default:
		return DegradeFail, fmt.Errorf("unknown degradation policy %q (want fail, drop, or partial)", s)
	}
}

// Context carries per-execution state shared by all operators of one plan:
// the correlated-binding environment used by dependent joins, the
// cancellation scope, and counters for tests and EXPLAIN ANALYZE-style
// diagnostics.
type Context struct {
	// Ctx bounds the execution: operators that block (external calls, pump
	// waits) or loop (Run) honor its deadline and cancellation. Never nil.
	Ctx context.Context
	Env *expr.Env
	// Degrade selects the failed-call handling for this query's external
	// calls (see Degraded).
	Degrade DegradePolicy
	// RetryCall, when set, performs a synchronous scan's (EVScan's) call:
	// async.Pump.CallWithRetry puts it to the request pump — cache,
	// coalescing, tokens, retry policy and all — and waits for it, so the
	// two iterations share one call path. hit reports that the cache
	// answered; span is the call's trace when ctx is sampled. Unset, the
	// scan calls its source directly, once.
	RetryCall func(ctx context.Context, src ExternalSource, key string) (rows []types.Tuple, hit bool, span *obs.Span, err error)
	// BatchSize overrides the executor's batch granularity; zero means
	// DefaultBatchSize. It is a reference granularity, not a tuning knob:
	// the benchmark and wsqfuzz run size 1 as the tuple-at-a-time reference
	// that every other size must agree with.
	BatchSize int
	// PumpCalls lists every asynchronous call this execution registered
	// (AEVScan appends; a request the pump's cache answered on the spot
	// registered none). A ReqSync disowns only the calls whose placeholder
	// tuples reached it; whoever runs the plan discards this list after the
	// root Close, so a call whose tuples a join dropped below the ReqSync,
	// or that an error stranded, does not stay parked in the pump.
	PumpCalls []types.CallID
	Stats     Stats
}

// Degraded is a failed external call under the query's degradation
// policy: no rows under drop, one row of width NULLs under partial — the
// call's tuples then go on without its attributes — and err under fail.
// A call it absorbs counts in Stats.DegradedCalls.
func (c *Context) Degraded(err error, width int) ([]types.Tuple, error) {
	switch c.Degrade {
	case DegradeDrop:
		c.Stats.DegradedCalls++
		return nil, nil
	case DegradePartial:
		c.Stats.DegradedCalls++
		null := make(types.Tuple, width)
		for i := range null {
			null[i] = types.Null()
		}
		return []types.Tuple{null}, nil
	default:
		return nil, err
	}
}

// BatchLen resolves the query's batch granularity: the max that Run and
// every operator draining a child to exhaustion pass to NextBatch.
func (c *Context) BatchLen() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return DefaultBatchSize
}

// NewContext returns a fresh execution context with no deadline (for
// tests and the REPL; servers use NewContextWith).
func NewContext() *Context {
	return NewContextWith(nil)
}

// NewContextWith returns a fresh execution context bounded by ctx.
func NewContextWith(ctx context.Context) *Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Context{Ctx: ctx, Env: &expr.Env{}}
}

// Stats counts executor events of interest to tests and benchmarks.
type Stats struct {
	// ExternalCalls counts the external scans' logical calls, one per
	// binding: every one an AEVScan puts to the pump, and every one of an
	// EVScan's that the cache did not answer.
	ExternalCalls int64
	TuplesOut     int64 // tuples produced at the root
	// DegradedCalls counts external calls whose terminal failure was
	// absorbed by a drop/partial degradation policy instead of erroring the
	// query.
	DegradedCalls int64
}

// Operator is the iterator interface every plan node implements.
type Operator interface {
	// Schema describes the operator's output columns.
	Schema() *schema.Schema
	// Open prepares the operator for iteration. Operators may be re-opened
	// after exhaustion (dependent joins re-open their right subtree once
	// per outer tuple).
	Open(ctx *Context) error
	// NextBatch is the one pull method. It produces the next batch of at
	// least 1 and at most max tuples; ok is false only at end of stream,
	// and then stays false until the next Open. Partial batches may appear
	// anywhere in the stream. max must be >= 1 — a caller with no bound of
	// its own passes ctx.BatchLen() — and max < 1 is rejected with an
	// error rather than given a meaning. The batch is valid until the next
	// NextBatch on this operator (see Batch); its tuples outlive it unless
	// the consumer granted the operator recycling (see recycler), and then
	// they too live until that next NextBatch. Producing it must respect
	// the draw discipline in the package comment.
	NextBatch(ctx *Context, max int) (b Batch, ok bool, err error)
	// Close releases resources. Close must be idempotent.
	Close() error
	// Children returns the operator's inputs (empty for leaves).
	Children() []Operator
	// SetChild replaces the i-th child (used by plan rewrites).
	SetChild(i int, op Operator)
	// Name is the operator's display name for EXPLAIN output.
	Name() string
	// Describe returns a one-line parameter summary for EXPLAIN output.
	Describe() string
}

// An operator declares its inputs by embedding one of three shapes, which
// supply Children and SetChild: leaf (the scans), Unary (Child) and binary
// (Left, Right). Only a decorator (spanOp) delegates them instead.

// leaf is the input shape of an operator with no inputs.
type leaf struct{}

// Children implements Operator.
func (leaf) Children() []Operator { return nil }

// SetChild implements Operator.
func (leaf) SetChild(i int, _ Operator) { panic(fmt.Sprintf("SetChild(%d) of a leaf", i)) }

// Unary is the input shape of an operator with one input. It is exported
// for the operators of other packages (async.ReqSync).
type Unary struct{ Child Operator }

// Children implements Operator.
func (u *Unary) Children() []Operator { return []Operator{u.Child} }

// SetChild implements Operator.
func (u *Unary) SetChild(i int, op Operator) {
	if i != 0 {
		panic(fmt.Sprintf("SetChild(%d) of a unary operator", i))
	}
	u.Child = op
}

// binary is the input shape of an operator with two inputs.
type binary struct{ Left, Right Operator }

// Children implements Operator.
func (b *binary) Children() []Operator { return []Operator{b.Left, b.Right} }

// SetChild implements Operator.
func (b *binary) SetChild(i int, op Operator) {
	switch i {
	case 0:
		b.Left = op
	case 1:
		b.Right = op
	default:
		panic(fmt.Sprintf("SetChild(%d) of a binary operator", i))
	}
}

// Run drains op to completion, returning all produced tuples. It opens
// and closes the operator. On every error path the operator is still
// closed and any Close error is joined onto the primary one — a failed
// pull must not mask (or be masked by) a resource-release failure.
func Run(ctx *Context, op Operator) ([]types.Tuple, error) {
	if err := op.Open(ctx); err != nil {
		return nil, errors.Join(err, op.Close())
	}
	var out []types.Tuple
	for {
		if ctx.Ctx != nil {
			if err := ctx.Ctx.Err(); err != nil {
				return nil, errors.Join(err, op.Close())
			}
		}
		b, ok, err := op.NextBatch(ctx, ctx.BatchLen())
		if err != nil {
			return nil, errors.Join(err, op.Close())
		}
		if !ok {
			break
		}
		ctx.Stats.TuplesOut += int64(len(b))
		out = append(out, b...)
	}
	if err := op.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// Explain renders the plan tree, one operator per line, children indented.
// The output deliberately mirrors the figures of the WSQ/DSQ paper
// ("Dependent Join", "EVScan", "AEVScan", "ReqSync", ...), so tests can
// compare generated plans against the paper's.
func Explain(op Operator) string {
	var b strings.Builder
	explainInto(&b, op, 0)
	return b.String()
}

func explainInto(b *strings.Builder, op Operator, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(op.Name())
	if d := op.Describe(); d != "" {
		b.WriteString(": ")
		b.WriteString(d)
	}
	b.WriteByte('\n')
	for _, c := range op.Children() {
		explainInto(b, c, depth+1)
	}
}

// Shape returns the nesting structure of a plan as a compact string, e.g.
// "Sort(ReqSync(DependentJoin(Scan,AEVScan)))". Tests compare shapes
// against the paper's figures without depending on parameter formatting.
func Shape(op Operator) string {
	kids := op.Children()
	if len(kids) == 0 {
		return op.Name()
	}
	parts := make([]string, len(kids))
	for i, c := range kids {
		parts[i] = Shape(c)
	}
	return op.Name() + "(" + strings.Join(parts, ",") + ")"
}

// Refs adds to set the attributes op's own expressions read — a
// predicate, projection, sort or join key, group or aggregate argument,
// call parameter — from its inputs or, for a call parameter, from an
// enclosing dependent join's bindings. It does not descend into children.
func Refs(op Operator, set map[schema.AttrID]bool) {
	add := func(exprs ...expr.Expr) {
		for _, e := range exprs {
			if e != nil {
				e.CollectAttrs(set)
			}
		}
	}
	switch o := op.(type) {
	case *TableScan:
		add(o.Pred)
	case *Filter:
		add(o.Pred)
	case *Project:
		add(o.Exprs...)
	case *Sort:
		for _, k := range o.Keys {
			add(k.Expr)
		}
	case *NestedLoopJoin:
		add(o.Pred)
	case *HashJoin:
		add(o.LeftKeys...)
		add(o.RightKeys...)
		add(o.Residual)
	case *HashSemiJoin:
		add(o.LeftKeys...)
		add(o.RightKeys...)
	case *Aggregate:
		add(o.GroupBy...)
		for _, a := range o.Aggs {
			add(a.Arg)
		}
	case interface{ externalScan() *ExternalScan }: // EVScan, and async's AEVScan
		add(o.externalScan().Inputs...)
	}
}

// columns resolves, once per Open and after bindAll, which of exprs read
// an in-row column: cols[i] is expr.Column(exprs[i]), the column's index,
// or -1 for any other expression. It refills cols in place.
func columns(cols []int, exprs ...expr.Expr) []int {
	cols = cols[:0]
	for _, e := range exprs {
		cols = append(cols, expr.Column(e))
	}
	return cols
}

// read is e's value over t: the cell at col, which columns resolved, read
// in place, or what e.Eval returns when col is -1. It is written to stay
// within the inliner's budget, so the per-row loops that call it pay no
// call for an in-row column.
func read(env *expr.Env, e expr.Expr, col int, t types.Tuple) (v types.Value, err error) {
	if uint(col) < uint(len(t)) { // col >= 0 too
		v = t[col]
	} else {
		v, err = e.Eval(env, t)
	}
	return
}

// bindAll binds the expressions against a schema, annotating errors with
// the operator name.
func bindAll(name string, s *schema.Schema, exprs ...expr.Expr) error {
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if err := e.Bind(s); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}
