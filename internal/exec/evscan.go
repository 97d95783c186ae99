package exec

import (
	"fmt"

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
	// AppendKey decodes one call's argument vector into the canonical key
	// that names the request — what memoizes it ([HN96]), what the tier
	// routes it by, and all Call needs to perform it — appended to buf, the
	// scan's scratch. args is read only during AppendKey, never retained:
	// scans overwrite it for the next binding. Arguments no call can be
	// made from yield a key of their own, whose Call fails with the reason.
	AppendKey(buf []byte, args []types.Value) []byte
	// Call returns the function that performs the (high-latency) external
	// request key names. It is asked for only when the request really has to
	// run: a cache hit or a call coalesced onto another never builds one.
	// Result rows carry only the non-echo columns, all of them, in order.
	Call(key string) func() ([]types.Tuple, error)
}

// ExternalScan is what the synchronous and the asynchronous external scan
// share: the source, its parameter expressions, which of the source's
// columns the query reads, and the one way a call's key and a call's rows
// are made.
type ExternalScan struct {
	leaf
	Source ExternalSource
	// Inputs supplies the call arguments. The first NumEcho() of them
	// correspond to echoed output columns; any further inputs (e.g. the
	// WebPages rank limit) parameterize the call without being echoed.
	Inputs []expr.Expr
	// Out holds the columns the scan emits: those of the source's column
	// list — echoed arguments, then result fields — that Keep marks.
	Out  *schema.Schema
	Keep []bool

	args ScanArgs
	key  []byte        // AppendKey scratch
	echo []types.Value // the kept echoed arguments, Request's scratch
	// nCalls counts logical calls — one per binding — across every Open
	// of the scan (a dependent join re-opens it once per outer binding),
	// and nCacheHits those of them the cache answered, for the span trace.
	nCalls, nCacheHits int64
}

func newExternalScan(src ExternalSource, inputs []expr.Expr, out *schema.Schema) ExternalScan {
	return ExternalScan{Source: src, Inputs: inputs, Out: out, Keep: keepAll(out)}
}

// Schema implements Operator.
func (s *ExternalScan) Schema() *schema.Schema { return s.Out }

// externalScan lets Refs treat every scan that embeds an ExternalScan alike.
func (s *ExternalScan) externalScan() *ExternalScan { return s }

// ResultCols returns the result fields the scan emits: the columns of Out
// after the echoed arguments it keeps.
func (s *ExternalScan) ResultCols() []schema.Column {
	echoes := 0
	for _, kept := range s.Keep[:s.Source.NumEcho()] {
		if kept {
			echoes++
		}
	}
	return s.Out.Cols[echoes:]
}

// Prune narrows the scan to the columns in need. One result field always
// stays, the first if need names none: how many rows a call returned
// reaches the plan only as tuples, and under asynchronous iteration as
// that field's placeholder.
func (s *ExternalScan) Prune(need map[schema.AttrID]bool) {
	s.Out = narrow(s.Out, s.Keep, need, spareCol(s.ResultCols(), need))
}

// spareCol names the column of cols to keep although nothing reads it —
// the first — when need names none of them, so that a row is never empty.
func spareCol(cols []schema.Column, need map[schema.AttrID]bool) schema.AttrID {
	for _, col := range cols {
		if need[col.ID] {
			return 0 // no column has id 0
		}
	}
	if len(cols) == 0 {
		return 0
	}
	return cols[0].ID
}

// keepAll is the mask of a scan that emits every column of out.
func keepAll(out *schema.Schema) []bool {
	keep := make([]bool, out.Len())
	for i := range keep {
		keep[i] = true
	}
	return keep
}

// narrow is a scan's column pruning. keep is a mask over the scan's full
// column list of which out holds the marked ones; narrow unmarks every
// column that need does not name and spare is not, and returns the schema
// of those still marked.
func narrow(out *schema.Schema, keep []bool, need map[schema.AttrID]bool, spare schema.AttrID) *schema.Schema {
	var cols []schema.Column
	at := 0
	for i, kept := range keep {
		if !kept {
			continue
		}
		col := out.Cols[at]
		at++
		if keep[i] = need[col.ID] || col.ID == spare; keep[i] {
			cols = append(cols, col)
		}
	}
	return schema.New(cols...)
}

// Request evaluates the call's arguments against the current bindings and
// builds its key. It returns the key and the arguments the scan echoes and
// keeps, in order — what AppendRows takes — both in scratch the next
// Request overwrites.
func (s *ExternalScan) Request(ctx *Context) (echoes []types.Value, key []byte, err error) {
	args, err := s.args.Eval(s.Source.Name(), s.Inputs, ctx)
	if err != nil {
		return nil, nil, err
	}
	s.key = s.Source.AppendKey(s.key[:0], args)
	s.echo = s.echo[:0]
	for i, kept := range s.Keep[:s.Source.NumEcho()] {
		if kept {
			s.echo = append(s.echo, args[i])
		}
	}
	return s.echo, s.key, nil
}

// CountCall records one logical call in the scan's profile; hit reports
// that the cache answered it.
func (s *ExternalScan) CountCall(hit bool) {
	s.nCalls++
	if hit {
		s.nCacheHits++
	}
}

// SpanExtras implements the trace-profile hook: the logical calls the
// scan made, and those of them the cache answered, over every Open.
func (s *ExternalScan) SpanExtras() map[string]int64 {
	return map[string]int64{"calls": s.nCalls, "cache_hits": s.nCacheHits}
}

// AppendRows appends to dst the output tuples of one call: per result row,
// the kept echoed arguments (echoes, as Request returns them) and the kept
// fields of the row, copied — the tuples share nothing with echoes or
// rows. They are cut from slab (see Batch), which comes back grown, or
// replaced by one with room for more further tuples when it could not
// hold them all. A row that does not have every result field is an error.
func (s *ExternalScan) AppendRows(dst []types.Tuple, slab []types.Value, echoes []types.Value, rows []types.Tuple, more int) ([]types.Tuple, []types.Value, error) {
	numEcho, width := s.Source.NumEcho(), s.Out.Len()
	if need := len(rows) * width; cap(slab)-len(slab) < need {
		slab = make([]types.Value, 0, need+more*width)
	}
	for _, r := range rows {
		if numEcho+len(r) != len(s.Keep) {
			return dst, slab, fmt.Errorf("%s: result width %d != schema width %d", s.Source.Name(), numEcho+len(r), len(s.Keep))
		}
		mark := len(slab)
		slab = append(slab, echoes...)
		for i, kept := range s.Keep[numEcho:] {
			if kept {
				slab = append(slab, r[i])
			}
		}
		dst = append(dst, slab[mark:len(slab):len(slab)])
	}
	return dst, slab, nil
}

// EVScan is the synchronous external virtual table scan of Section 4.1:
// each Open evaluates its parameter expressions against the correlated
// bindings supplied by an enclosing dependent join, performs the external
// call, and streams the resulting tuples. The query processor is idle for
// the full latency of every call — this is precisely the behavior
// asynchronous iteration (package async) replaces. The call itself is the
// request pump's, through Context.RetryCall: an asynchronous scan's call
// with nothing else outstanding.
type EVScan struct {
	ExternalScan

	rows []types.Tuple // the call result not yet emitted
	// callSpans accumulates the pump call spans of the calls made while
	// the query is sampled; TraceChildren hands them out at Close.
	callSpans []*obs.Span
}

// ResultCache memoizes external call results ([HN96]). The request pump
// probes it with Peek outside its own lock, from every query at once, so
// an implementation must be safe for concurrent use.
type ResultCache interface {
	// Get looks key up, counting a hit or a miss.
	Get(key string) ([]types.Tuple, bool)
	// Peek is Get for a caller that looks a missed key up again with Get:
	// it counts and refreshes a hit exactly as Get does, and does not count
	// a miss, so that every lookup is counted once. It takes the key as
	// bytes, read only during the call, so that a probe makes no string.
	Peek(key []byte) ([]types.Tuple, bool)
	Put(key string, rows []types.Tuple)
}

// NewEVScan builds a synchronous external scan.
func NewEVScan(src ExternalSource, inputs []expr.Expr, out *schema.Schema) *EVScan {
	return &EVScan{ExternalScan: newExternalScan(src, inputs, out)}
}

// ScanArgs evaluates a virtual-table scan's parameter expressions, which
// read correlated bindings and constants, never a row. Binding them does
// not depend on the outer tuple, and neither does the value of one that
// reads no binding — the synthesized SearchExp, an unbound term's NULL,
// the rank limit — so both happen once, before the first evaluation; the
// values go to a scratch slice the next Eval overwrites.
type ScanArgs struct {
	bound   bool
	vals    []types.Value
	varying []int // the inputs that read a binding, evaluated by every Eval
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
		a.vals = make([]types.Value, len(inputs))
		a.varying = a.varying[:0]
		attrs := make(map[schema.AttrID]bool)
		for i, in := range inputs {
			clear(attrs)
			if in.CollectAttrs(attrs); len(attrs) > 0 {
				a.varying = append(a.varying, i)
			} else if err := a.eval(name, inputs, i, ctx); err != nil {
				return nil, err
			}
		}
		a.bound = true
	}
	for _, i := range a.varying {
		if err := a.eval(name, inputs, i, ctx); err != nil {
			return nil, err
		}
	}
	return a.vals, nil
}

func (a *ScanArgs) eval(name string, inputs []expr.Expr, i int, ctx *Context) error {
	v, err := inputs[i].Eval(ctx.Env, nil)
	if err != nil {
		return fmt.Errorf("%s input %d: %w", name, i, err)
	}
	if v.IsPlaceholder() {
		return fmt.Errorf("%s input %d is a pending placeholder; invalid plan rewrite", name, i)
	}
	a.vals[i] = v
	return nil
}

// Open implements Operator: it performs the external call and waits for
// it. A failed call is degraded per the query's policy (Context.Degraded).
func (s *EVScan) Open(ctx *Context) error {
	echoes, key, err := s.Request(ctx)
	if err != nil {
		return err
	}
	// A synchronous scan is about to block for the call's full latency;
	// don't start it if the query's deadline has already passed.
	if ctx.Ctx != nil {
		if err := ctx.Ctx.Err(); err != nil {
			return err
		}
	}
	rows, hit, span, err := s.call(ctx, string(key))
	s.CountCall(hit)
	if !hit {
		ctx.Stats.ExternalCalls++
	}
	if span != nil {
		s.callSpans = append(s.callSpans, span)
	}
	if err != nil {
		if rows, err = ctx.Degraded(err, len(s.Keep)-s.Source.NumEcho()); err != nil {
			return fmt.Errorf("%s: %w", s.Source.Name(), err)
		}
	}
	return s.setRows(echoes, rows)
}

// call performs the call key names through ctx.RetryCall, or with no hook
// set by calling the source once.
func (s *EVScan) call(ctx *Context, key string) ([]types.Tuple, bool, *obs.Span, error) {
	if ctx.RetryCall != nil {
		return ctx.RetryCall(ctx.Ctx, s.Source, key)
	}
	rows, err := s.Source.Call(key)()
	return rows, false, nil, err
}

// setRows materializes the call's rows as the output tuples NextBatch
// hands out.
func (s *EVScan) setRows(echoes []types.Value, rows []types.Tuple) (err error) {
	s.rows, _, err = s.AppendRows(nil, nil, echoes, rows, 0)
	return err
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

// TraceChildren implements the async-span hook: the pump call spans of
// the calls made while the query was sampled. The scan blocks inside the
// call (its wall time already lands in the span's self time); these
// children show where it went — queue wait, attempts, retries. Each span
// is handed out once.
func (s *EVScan) TraceChildren() []*obs.Span {
	out := s.callSpans
	s.callSpans = nil
	return out
}

// Name implements Operator.
func (s *EVScan) Name() string { return "EVScan" }

// Describe implements Operator.
func (s *EVScan) Describe() string { return s.Source.Name() }
