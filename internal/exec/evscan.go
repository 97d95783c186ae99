package exec

import (
	"fmt"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/types"
)

// ExternalSource abstracts the remote call behind a virtual table scan.
// Package vtab provides implementations for WebCount, WebPages, and
// WebFetch; the executor only needs to know how to invoke the call and how
// its results align with the scan's output schema.
type ExternalSource interface {
	// Name identifies the virtual table instance, e.g. "WebPages_AV".
	Name() string
	// Destination identifies the external service for the request pump's
	// per-destination concurrency limits, e.g. "altavista".
	Destination() string
	// NumEcho is the count of leading output columns that simply echo the
	// call's argument values (SearchExp, T1..Tn). The remaining output
	// columns are supplied by the call's result rows.
	NumEcho() int
	// Request decodes one call's argument vector, once, into the canonical
	// key that memoizes the call ([HN96]; also the tier's peer-routing key)
	// and the function that performs the (high-latency) external request.
	// args is read only during Request, never retained: scans pass scratch
	// they overwrite for the next binding. Arguments no call can be made
	// from yield a key of their own and a call that fails with the reason.
	// Result rows carry only the non-echo output columns, in schema order.
	Request(args []types.Value) (key string, call func() ([]types.Tuple, error))
}

// EVScan is the synchronous external virtual table scan of Section 4.1:
// each Open evaluates its parameter expressions against the correlated
// bindings supplied by an enclosing dependent join, performs the external
// call, and streams the resulting tuples. The query processor is idle for
// the full latency of every call — this is precisely the behavior
// asynchronous iteration (package async) replaces.
type EVScan struct {
	Source ExternalSource
	// Inputs supplies the call arguments. The first NumEcho() of them
	// correspond to echoed output columns; any further inputs (e.g. the
	// WebPages rank limit) parameterize the call without being echoed.
	Inputs []expr.Expr
	Out    *schema.Schema
	// Cache, when non-nil, memoizes call results across Opens ([HN96]).
	Cache ResultCache

	rows []types.Tuple // the call result not yet emitted
	args ScanArgs
	// Per-instance profile counters for the span trace (EXPLAIN ANALYZE):
	// calls actually issued vs served from cache, across every Open of
	// this scan (a dependent join re-opens it once per outer binding).
	nCalls, nCacheHits int64
	// callSpans accumulates per-call timing spans while the query is
	// sampled; TraceChildren hands them out at Close. Nil when untraced.
	callSpans []*obs.Span
}

// ResultCache memoizes external call results.
type ResultCache interface {
	Get(key string) ([]types.Tuple, bool)
	Put(key string, rows []types.Tuple)
}

// NewEVScan builds a synchronous external scan.
func NewEVScan(src ExternalSource, inputs []expr.Expr, out *schema.Schema) *EVScan {
	return &EVScan{Source: src, Inputs: inputs, Out: out}
}

// Schema implements Operator.
func (s *EVScan) Schema() *schema.Schema { return s.Out }

// ScanArgs evaluates a virtual-table scan's parameter expressions, which
// read correlated bindings and constants, never a row. Binding them does
// not depend on the outer tuple, so it happens once, before the first
// evaluation; the values go to a scratch slice the next Eval overwrites.
type ScanArgs struct {
	bound bool
	vals  []types.Value
}

// Eval evaluates inputs against the current correlated bindings. It
// rejects placeholder arguments: a dependent join whose bindings are still
// pending must stay below the ReqSync that fills them (the rewriter
// guarantees this; the check catches rewrite bugs).
func (a *ScanArgs) Eval(name string, inputs []expr.Expr, ctx *Context) ([]types.Value, error) {
	if !a.bound {
		if err := bindAll(name, schema.New(), inputs...); err != nil {
			return nil, err
		}
		a.bound = true
	}
	a.vals = a.vals[:0]
	for i, in := range inputs {
		v, err := in.Eval(ctx.Env, nil)
		if err != nil {
			return nil, fmt.Errorf("%s input %d: %w", name, i, err)
		}
		if v.IsPlaceholder() {
			return nil, fmt.Errorf("%s input %d is a pending placeholder; invalid plan rewrite", name, i)
		}
		a.vals = append(a.vals, v)
	}
	return a.vals, nil
}

// Open implements Operator: it performs the external call (or serves it
// from cache).
func (s *EVScan) Open(ctx *Context) error {
	args, err := s.args.Eval(s.Source.Name(), s.Inputs, ctx)
	if err != nil {
		return err
	}
	key, call := s.Source.Request(args)
	if s.Cache != nil {
		if rows, ok := s.Cache.Get(key); ok {
			s.nCacheHits++
			return s.setRows(args, rows)
		}
	}
	// A synchronous scan is about to block for the call's full latency;
	// don't start it if the query's deadline has already passed.
	if ctx.Ctx != nil {
		if err := ctx.Ctx.Err(); err != nil {
			return err
		}
	}
	ctx.Stats.ExternalCalls++
	s.nCalls++
	start := time.Now()
	var rows []types.Tuple
	if ctx.RetryCall != nil {
		rows, err = ctx.RetryCall(ctx.Ctx, call)
	} else {
		rows, err = call()
	}
	if obs.SampledTrace(ctx.Ctx) != nil {
		detail := s.Source.Destination()
		if err != nil {
			detail += " error"
		}
		s.callSpans = append(s.callSpans, &obs.Span{
			Op: "engine.call", Detail: detail, Start: start, Dur: time.Since(start),
		})
	}
	if err != nil {
		switch ctx.Degrade {
		case DegradeDrop:
			// Treat the failed call as a zero-row result: downstream joins
			// drop the driving tuple, exactly like ReqSync's drop policy.
			ctx.Stats.DegradedCalls++
			rows = nil
		case DegradePartial:
			// One all-NULL result row: the driving tuple survives with the
			// call's attributes NULLed.
			ctx.Stats.DegradedCalls++
			width := s.Schema().Len() - s.Source.NumEcho()
			null := make(types.Tuple, width)
			for i := range null {
				null[i] = types.Null()
			}
			rows = []types.Tuple{null}
		default:
			return fmt.Errorf("%s: %w", s.Source.Name(), err)
		}
	}
	// Degraded results are never cached: the call may succeed next time.
	if s.Cache != nil && err == nil {
		s.Cache.Put(key, rows)
	}
	return s.setRows(args, rows)
}

// setRows prefixes each call result row with the echoed argument values,
// producing the full output-schema tuples NextBatch hands out.
func (s *EVScan) setRows(args []types.Value, rows []types.Tuple) error {
	numEcho := s.Source.NumEcho()
	s.rows = make([]types.Tuple, len(rows))
	for i, r := range rows {
		t := make(types.Tuple, 0, numEcho+len(r))
		t = append(t, args[:numEcho]...)
		t = append(t, r...)
		if len(t) != s.Out.Len() {
			return fmt.Errorf("%s: result width %d != schema width %d", s.Source.Name(), len(t), s.Out.Len())
		}
		s.rows[i] = t
	}
	return nil
}

// NextBatch implements Operator by handing out windows of the call result
// materialized at Open.
func (s *EVScan) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	return TakeBatch(&s.rows, max)
}

// Close implements Operator.
func (s *EVScan) Close() error {
	s.rows = nil
	return nil
}

// Children implements Operator.
func (s *EVScan) Children() []Operator { return nil }

// SetChild implements Operator.
func (s *EVScan) SetChild(int, Operator) { panic("EVScan has no children") }

// SpanExtras implements the trace-profile hook: external calls issued
// and cache hits served, accumulated over every Open.
func (s *EVScan) SpanExtras() map[string]int64 {
	return map[string]int64{"calls": s.nCalls, "cache_hits": s.nCacheHits}
}

// TraceChildren implements the async-span hook: per-call timing spans
// recorded while the query was sampled. The scan blocks inside the call
// (its wall time already lands in the span's self time); these children
// name the destination and per-call latency. Each span is handed out
// once.
func (s *EVScan) TraceChildren() []*obs.Span {
	out := s.callSpans
	s.callSpans = nil
	return out
}

// Name implements Operator.
func (s *EVScan) Name() string { return "EVScan" }

// Describe implements Operator.
func (s *EVScan) Describe() string { return s.Source.Name() }
