package async

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/schema"
	"repro/internal/types"
)

// AEVScan is the asynchronous external virtual-table scan of Section 4.1.
// Where EVScan blocks for the duration of the search-engine request,
// AEVScan registers the call with the ReqPump and immediately returns a
// single tuple whose call-supplied attributes hold placeholders; the
// ReqSync operator higher in the plan later patches, cancels, or expands
// that tuple when the call completes (Section 4.3).
type AEVScan struct {
	Source exec.ExternalSource
	Inputs []expr.Expr
	Out    *schema.Schema
	Pump   *Pump

	// pending is the one placeholder tuple an Open leaves to be pulled.
	pending []types.Tuple
	args    exec.ScanArgs
	// nCalls counts pump registrations across every Open of this instance,
	// for the span trace (one registration per outer binding).
	nCalls int64
	// traces accumulates the lifecycle records of the calls this scan
	// registered while the query was sampled; TraceChildren turns them
	// into pump call spans at Close. Empty for untraced queries.
	traces []*CallTrace
}

// NewAEVScan builds an asynchronous external scan.
func NewAEVScan(src exec.ExternalSource, inputs []expr.Expr, out *schema.Schema, pump *Pump) *AEVScan {
	return &AEVScan{Source: src, Inputs: inputs, Out: out, Pump: pump}
}

// FromEVScan converts a synchronous EVScan into its asynchronous
// counterpart (step one of the rewrite algorithm). The pump takes over the
// EVScan's cache, if any.
func FromEVScan(ev *exec.EVScan, pump *Pump) *AEVScan {
	return NewAEVScan(ev.Source, ev.Inputs, ev.Out, pump)
}

// Schema implements exec.Operator.
func (s *AEVScan) Schema() *schema.Schema { return s.Out }

// register is the one registration routine behind Open and BindBatch. It
// evaluates the call's parameters against the current dependent-join
// bindings, registers the call with the pump — without waiting — and
// fills t, a zeroed tuple of the output width, to stand for its result:
// argument values echoed (copied, so t outlives the binding frame),
// call-supplied attributes as placeholders. "We always begin by assuming
// that exactly one tuple joins, then 'patch' our results in ReqSync"
// (Section 4.3). A non-nil byKey shares one pump call among the bindings
// of a batch that have the same cache key.
func (s *AEVScan) register(ctx *exec.Context, byKey map[string]types.CallID, t types.Tuple) error {
	if s.Pump == nil {
		return fmt.Errorf("AEVScan %s: no request pump", s.Source.Name())
	}
	args, err := s.args.Eval(s.Source.Name(), s.Inputs, ctx)
	if err != nil {
		return err
	}
	ctx.Stats.ExternalCalls++
	s.nCalls++
	key, call := s.Source.Request(args)
	id, seen := byKey[key]
	if !seen {
		// Registering under the execution context ties the call's lifetime
		// to the query: if the deadline expires while the call is still
		// queued, the pump drops it without consuming a slot.
		id = s.Pump.RegisterCtx(ctx.Ctx, s.Source.Destination(), key, call)
		ctx.PumpCalls = append(ctx.PumpCalls, id)
		if byKey != nil {
			byKey[key] = id
		}
		if obs.SampledTrace(ctx.Ctx) != nil {
			s.traces = append(s.traces, s.Pump.CallTrace(id))
		}
	}
	numEcho := s.Source.NumEcho()
	copy(t[:numEcho], args)
	for i := numEcho; i < len(t); i++ {
		t[i] = types.Placeholder(id, i-numEcho)
	}
	return nil
}

// Open implements exec.Operator: it registers the call for the current
// bindings and leaves exactly one placeholder tuple to be pulled.
func (s *AEVScan) Open(ctx *exec.Context) error {
	t := make(types.Tuple, s.Out.Len())
	if err := s.register(ctx, nil, t); err != nil {
		return err
	}
	s.pending = []types.Tuple{t}
	return nil
}

// NextBatch implements exec.Operator: the one tuple of this Open, then
// end of stream.
func (s *AEVScan) NextBatch(ctx *exec.Context, max int) (exec.Batch, bool, error) {
	return exec.TakeBatch(&s.pending, max)
}

// BindBatch implements exec.BindingBatcher: it registers the external
// calls for a whole batch of outer bindings in one round — when the pump
// memoizes results, one Pump.RegisterCtx per *distinct* cache key in the
// batch — so the pump sees the full request queue before the enclosing
// ReqSync's first wait, instead of one call per dependent-join binding.
// Duplicate keys within the batch then share one CallID (the ReqSync
// patches every waiting tuple of a call when it settles, so sharing is
// transparent). Without a cache, every binding registers its own call:
// duplicate bindings re-issuing duplicate requests is the paper's
// Figure 7 behavior, and batching must not silently change it. Either
// way the per-binding accounting (Stats.ExternalCalls, the trace's calls
// counter) counts one logical call per binding, matching the per-binding
// path. The round's placeholder tuples and one-row results are cut from
// one slab each.
func (s *AEVScan) BindBatch(ctx *exec.Context, cols []schema.Column, outer []types.Tuple) ([][]types.Tuple, bool, error) {
	if len(outer) == 0 {
		return nil, true, nil // capability probe
	}
	var byKey map[string]types.CallID
	if s.Pump != nil && s.Pump.HasCache() {
		byKey = make(map[string]types.CallID, len(outer))
	}
	width := s.Out.Len()
	slab := make([]types.Value, len(outer)*width)
	tuples := make([]types.Tuple, len(outer))
	rows := make([][]types.Tuple, len(outer))
	for i, lt := range outer {
		tuples[i] = slab[i*width : (i+1)*width : (i+1)*width]
		ctx.Env.PushFrame(cols, lt)
		err := s.register(ctx, byKey, tuples[i])
		ctx.Env.PopFrame()
		if err != nil {
			return nil, false, err
		}
		rows[i] = tuples[i : i+1 : i+1]
	}
	return rows, true, nil
}

// Close implements exec.Operator.
func (s *AEVScan) Close() error { return nil }

// Children implements exec.Operator.
func (s *AEVScan) Children() []exec.Operator { return nil }

// SetChild implements exec.Operator.
func (s *AEVScan) SetChild(int, exec.Operator) { panic("AEVScan has no children") }

// SpanExtras implements exec.SpanExtras: calls registered with the pump.
func (s *AEVScan) SpanExtras() map[string]int64 {
	return map[string]int64{"calls": s.nCalls}
}

// TraceChildren implements exec.TraceChildren: the pump call timelines
// this scan registered while the query was sampled, as spans. Handing
// them out empties the list, so re-closing (dependent joins close their
// inner subtree once per binding) attaches each call exactly once.
func (s *AEVScan) TraceChildren() []*obs.Span {
	spans := make([]*obs.Span, 0, len(s.traces))
	for _, ct := range s.traces {
		spans = append(spans, ct.Span())
	}
	s.traces = s.traces[:0]
	return spans
}

// Name implements exec.Operator.
func (s *AEVScan) Name() string { return "AEVScan" }

// Describe implements exec.Operator.
func (s *AEVScan) Describe() string { return s.Source.Name() }

// FilledAttrs returns the set of output attributes whose values this scan
// leaves as placeholders — the ReqSync_i.A set of Section 4.5.2.
func (s *AEVScan) FilledAttrs() map[schema.AttrID]bool {
	set := make(map[schema.AttrID]bool)
	for i := s.Source.NumEcho(); i < len(s.Out.Cols); i++ {
		set[s.Out.Cols[i].ID] = true
	}
	return set
}
