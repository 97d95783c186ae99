package exec

import (
	"time"

	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/types"
)

// SpanExtras is implemented by operators that expose extra per-span
// counters beyond time and cardinality — ReqSync reports placeholder
// patches/expansions/cancellations, the external scans report calls
// issued. The instrumented executor collects the extras when the
// operator closes.
type SpanExtras interface {
	SpanExtras() map[string]int64
}

// TraceChildren is implemented by operators whose work partly runs
// concurrently with the iterator protocol — AEVScan's pump calls,
// EVScan's inline engine calls — and can surface it as spans. The
// instrumented executor collects them at Close and attaches them as
// async children of the operator's span (obs.Span.AddAsyncChild), so
// the off-tree work becomes visible without perturbing the plan-shaped
// timing invariants. Implementations must hand each span out exactly
// once (Close runs repeatedly).
type TraceChildren interface {
	TraceChildren() []*obs.Span
}

// Instrument wraps every operator of a plan in a timing decorator and
// returns the instrumented plan plus the root of its span tree. The
// span tree mirrors the plan tree exactly (span parentage == operator
// parentage), and each span accumulates the *inclusive* wall time spent
// inside its operator's Open/NextBatch/Close calls: a parent's time includes
// its children's, so the root span's duration is the query's execution
// time and Span.Self exposes per-operator exclusive time.
//
// Because the decorators nest through the ordinary iterator protocol,
// time an operator spends blocked — a ReqSync waiting on the request
// pump, an EVScan inside a synchronous engine call — is attributed to
// that operator's self time. This is the Volcano-style per-operator
// profile the paper's latency-hiding claim is verified against.
//
// Instrument mutates the plan (children are replaced by their wrapped
// forms) until Uninstrument puts it back, so a tree that outlives its
// query is traced one execution at a time. It must run after any
// structural rewrites (async.Rewrite). A BindingBatcher's decorator is
// one too, and no other decorator is, so a dependent join binds the same
// way traced or not.
func Instrument(op Operator) (Operator, *obs.Span) {
	span := obs.NewSpan(op.Name(), op.Describe())
	for i, c := range op.Children() {
		cw, cs := Instrument(c)
		span.AddChild(cs)
		op.SetChild(i, cw)
	}
	w := &spanOp{inner: op, span: span}
	if ex, ok := op.(SpanExtras); ok {
		w.base = ex.SpanExtras()
	}
	if bb, ok := op.(BindingBatcher); ok {
		return &batchSpanOp{spanOp: w, bb: bb}, span
	}
	return w, span
}

// Uninstrument is Instrument's inverse: it puts every operator of an
// instrumented plan back in its parent's slot and returns the plan's root.
func Uninstrument(op Operator) Operator {
	switch w := op.(type) {
	case *spanOp:
		op = w.inner
	case *batchSpanOp:
		op = w.inner
	}
	for i, c := range op.Children() {
		op.SetChild(i, Uninstrument(c))
	}
	return op
}

// spanOp is the timing decorator. It is transparent to plan inspection:
// Name, Describe, Schema, and the child accessors all delegate, so
// Explain and Shape render the instrumented tree identically.
type spanOp struct {
	inner Operator
	span  *obs.Span
	// base holds the operator's extras when it was wrapped: they count over
	// the operator's life, the span over this execution.
	base map[string]int64
	// nBatches counts NextBatch/BindBatch rounds so EXPLAIN ANALYZE can
	// report per-operator batch granularity (rows/batch = Rows/batches).
	nBatches int64
}

func (w *spanOp) Schema() *schema.Schema { return w.inner.Schema() }

func (w *spanOp) Open(ctx *Context) error {
	start := time.Now()
	if w.span.Opens == 0 {
		w.span.Start = start
	}
	w.span.Opens++
	err := w.inner.Open(ctx)
	w.span.Dur += time.Since(start)
	return err
}

// NextBatch times the whole batch pull as one protocol call.
func (w *spanOp) NextBatch(ctx *Context, max int) (Batch, bool, error) {
	start := time.Now()
	b, ok, err := w.inner.NextBatch(ctx, max)
	w.span.Dur += time.Since(start)
	if ok {
		w.span.Rows += int64(len(b))
		w.nBatches++
	}
	return b, ok, err
}

// batchSpanOp is the timing decorator of a BindingBatcher.
type batchSpanOp struct {
	*spanOp
	bb BindingBatcher
}

// BindBatch times one batch-binding round. Each bound tuple counts as one
// logical Open — a dependent join driving the per-binding path would have
// re-opened the inner subtree once per outer binding, and the trace must
// report the same logical work either way.
func (w *batchSpanOp) BindBatch(ctx *Context, cols []schema.Column, outer []types.Tuple) ([][]types.Tuple, error) {
	start := time.Now()
	if w.span.Opens == 0 {
		w.span.Start = start
	}
	rows, err := w.bb.BindBatch(ctx, cols, outer)
	w.span.Dur += time.Since(start)
	w.span.Opens += int64(len(outer))
	for _, rs := range rows {
		w.span.Rows += int64(len(rs))
	}
	w.nBatches++
	return rows, err
}

func (w *spanOp) Close() error {
	start := time.Now()
	err := w.inner.Close()
	w.span.Dur += time.Since(start)
	// Operator extras are cumulative over the operator's life, and Close
	// may run many times (a dependent join closes its inner subtree once
	// per outer binding, error paths close eagerly, Run closes again) —
	// so overwrite with the latest difference rather than accumulating.
	if ex, ok := w.inner.(SpanExtras); ok {
		for k, v := range ex.SpanExtras() {
			w.span.SetExtra(k, v-w.base[k])
		}
	}
	if w.nBatches > 0 {
		w.span.SetExtra("batches", w.nBatches)
	}
	if tc, ok := w.inner.(TraceChildren); ok {
		for _, c := range tc.TraceChildren() {
			w.span.AddAsyncChild(c)
		}
	}
	return err
}

func (w *spanOp) Children() []Operator        { return w.inner.Children() }
func (w *spanOp) SetChild(i int, op Operator) { w.inner.SetChild(i, op) }
func (w *spanOp) Name() string                { return w.inner.Name() }
func (w *spanOp) Describe() string            { return w.inner.Describe() }
